package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"socrel/internal/adl"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/server"
	"socrel/internal/store"
)

// The in-process replay serves the workload's generated request stream
// through the layers' public functions, composed as cmd/relserve and
// cmd/relfleet compose them, with a span around every call into a layer:
//
//	request ─┬─ store.cache_load_{hit,miss}   (tenant-mix: ArtifactCache.Load)
//	         └─ server.serve ─┬─ core.eval     (benchmark-owned Evaluator wrapper)
//	                          └─ estimate.observe (benchmark-owned OnOutcome hook)
//	cluster.serve ── core.eval                 (Fleet.Serve; its estimator is the fleet's own)
//	cluster.gossip                             (Fleet.GossipRound)
//
// plus adl.parse, store.publish and store.get around the store calls. The
// replay is one sequential caller; counts come from each layer's Stats(),
// MemoStats() and ParametricStats() read right after the replay.

// replayOp is one request of the stream as the replay serves it.
type replayOp struct {
	write            bool
	model, ver, pool int
	params           []float64
	scope            string
}

// replayInput is a workload's stream plus what serving it needs.
type replayInput struct {
	service string
	ops     []replayOp
	models  []modelSpec            // tenant-mix; nil for the paper workloads
	paper   *core.CompiledAssembly // paper workloads: the relserve/relfleet evaluator
	oracle  *tenantOracle
	gossip  int // requests per gossip round (100 ms of the fixed rate)
}

func (in *replayInput) tenant() bool { return in.models != nil }

// replayOps converts the generated HTTP ops; content versions of writes
// are already in the stream.
func replayOps(ops []op) []replayOp {
	out := make([]replayOp, len(ops))
	for i, o := range ops {
		out[i] = replayOp{write: o.write, model: o.model, ver: o.ver, pool: o.pool, params: o.params, scope: o.scope}
	}
	return out
}

type modelKey struct{}

// probe carries the trace and the current request across the layers'
// callbacks; the replay is sequential, so one current request suffices.
type probe struct {
	tr     *tracer
	parent atomic.Int32
	req    atomic.Int64
	points atomic.Uint64
}

// tracedEval is the benchmark-owned server.Evaluator: it spans the
// engine call. With no fixed evaluator it dispatches to the artifact the
// request context carries, as relserve does for stored models.
type tracedEval struct {
	p     *probe
	fixed *core.CompiledAssembly
}

func (e *tracedEval) resolve(ctx context.Context) *core.CompiledAssembly {
	if e.fixed != nil {
		return e.fixed
	}
	ca, _ := ctx.Value(modelKey{}).(*core.CompiledAssembly)
	return ca
}

func (e *tracedEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	ca := e.resolve(ctx)
	if ca == nil {
		return 0, fmt.Errorf("no model in request context")
	}
	if e.p.tr == nil {
		return ca.PfailCtx(ctx, service, params...)
	}
	id := e.p.tr.begin("core.eval", e.p.parent.Load(), e.p.req.Load())
	v, err := ca.PfailCtx(ctx, service, params...)
	e.p.tr.end(id)
	e.p.points.Add(1)
	return v, err
}

func (e *tracedEval) PfailBatchCtx(ctx context.Context, service string, paramSets [][]float64) ([]float64, error) {
	ca := e.resolve(ctx)
	if ca == nil {
		return nil, fmt.Errorf("no model in request context")
	}
	if e.p.tr == nil {
		return ca.PfailBatchCtx(ctx, service, paramSets)
	}
	id := e.p.tr.begin("core.batch", e.p.parent.Load(), e.p.req.Load())
	v, err := ca.PfailBatchCtx(ctx, service, paramSets)
	e.p.tr.end(id)
	e.p.points.Add(uint64(len(paramSets)))
	return v, err
}

// observeHook is relserve's estimator feed, spanned when tracing.
func observeHook(p *probe, est *estimate.Estimator) func(server.Outcome) {
	return func(o server.Outcome) {
		var id int32
		if p.tr != nil {
			id = p.tr.begin("estimate.observe", p.parent.Load(), p.req.Load())
		}
		est.Observe(estimate.Outcome{Provider: o.Service, Context: o.Scope, Failed: !o.Success, Latency: o.Latency, At: o.At})
		if p.tr != nil {
			p.tr.end(id)
		}
	}
}

// serverConfig is the relserve/relfleet default serving configuration.
func serverConfig(service string) server.Config {
	return server.Config{
		Service:       service,
		QueueCapacity: 64,
		Limiter:       server.LimiterConfig{LatencyTarget: 50 * time.Millisecond},
	}
}

// replayStore is the node composition's model store and artifact cache.
type replayStore struct {
	p     *probe
	st    *store.Mem
	cache *store.ArtifactCache
	ver   []int // current content version per model
	seen  map[*core.CompiledAssembly]bool
}

func newReplayStore(p *probe) *replayStore {
	return &replayStore{p: p, st: store.NewMem(), cache: store.NewArtifactCache(64), seen: map[*core.CompiledAssembly]bool{}}
}

// publish parses src and publishes it, spanning both steps.
func (rs *replayStore) publish(tenant, model, src string, req int64) error {
	id := rs.p.tr.begin("adl.parse", -1, req)
	doc, err := adl.ParseDSL(src)
	rs.p.tr.end(id)
	if err != nil {
		return fmt.Errorf("replay: parse %s/%s: %w", tenant, model, err)
	}
	id = rs.p.tr.begin("store.publish", -1, req)
	_, err = rs.st.Publish(tenant, model, doc, store.PublishOptions{})
	rs.p.tr.end(id)
	if err != nil {
		return fmt.Errorf("replay: publish %s/%s: %w", tenant, model, err)
	}
	return nil
}

// load resolves ref through the cache as relserve's modelContext does,
// naming the span by whether it hit.
func (rs *replayStore) load(ref store.Ref, asm string, parent int32, req int64) (*core.CompiledAssembly, store.Record, error) {
	before := rs.cache.Stats().Hits
	id := rs.p.tr.begin("store.cache_load", parent, req)
	ca, rec, err := rs.cache.Load(rs.st, ref, asm, core.Options{})
	rs.p.tr.end(id)
	name := "store.cache_load_miss"
	if rs.cache.Stats().Hits > before {
		name = "store.cache_load_hit"
	}
	rs.p.tr.rename(id, name)
	if err == nil {
		rs.seen[ca] = true
	}
	return ca, rec, err
}

// get spans a plain store read of ref, then the decode of its stored
// document: the step ArtifactCache.Load repeats on every hit.
func (rs *replayStore) get(ref store.Ref, req int64) error {
	id := rs.p.tr.begin("store.get", -1, req)
	rec, err := rs.st.Get(ref)
	rs.p.tr.end(id)
	if err != nil {
		return err
	}
	id = rs.p.tr.begin("store.decode", -1, req)
	_, err = rec.Document()
	rs.p.tr.end(id)
	return err
}

// nodeResult is what the node replay leaves for the metrics.
type nodeResult struct {
	wall   time.Duration
	served int
	srv    server.Stats
	est    estimate.Stats
	cache  store.CacheStats
	points uint64
	// Engine counters added by the replay, over every artifact it used.
	parametric, numeric, memoHits, memoMisses uint64
}

func refOf(m *modelSpec) store.Ref { return store.Ref{Tenant: m.Tenant, Model: m.Name} }

// replayNode serves in.ops through store → cache → server.Serve, as
// cmd/relserve does, until the deadline.
func replayNode(in *replayInput, p *probe, acc *accounting, deadline time.Time) (nodeResult, error) {
	est, err := estimate.New(estimate.Config{})
	if err != nil {
		return nodeResult{}, err
	}
	cfg := serverConfig(in.service)
	cfg.OnOutcome = observeHook(p, est)
	srv := server.New(&tracedEval{p: p, fixed: in.paper}, cfg)
	rs := newReplayStore(p)
	paperRef := store.Ref{Tenant: "paper", Model: "search"}
	if in.tenant() {
		rs.ver = make([]int, len(in.models))
		for i := range in.models {
			m := &in.models[i]
			if err := rs.publish(m.Tenant, m.Name, m.doc(0), -1); err != nil {
				return nodeResult{}, err
			}
		}
	} else {
		src, err := os.ReadFile("examples/paper.adl")
		if err != nil {
			return nodeResult{}, err
		}
		// One stored paper model serves the probes; the copies under other
		// names give adl.parse and store.publish their samples.
		for i := 0; i < 50; i++ {
			name := paperRef.Model
			if i > 0 {
				name = fmt.Sprintf("%s-%d", name, i)
			}
			if err := rs.publish(paperRef.Tenant, name, string(src), -1); err != nil {
				return nodeResult{}, err
			}
		}
	}
	// The paper evaluator may already have served other phases; count
	// only what the replay adds.
	var baseP core.ParametricStats
	var baseM core.MemoStats
	if in.paper != nil {
		baseP, baseM = in.paper.ParametricStats(), in.paper.MemoStats()
	}
	tally := acc.get("replay", "read")
	start := time.Now()
	var res nodeResult
	for i, o := range in.ops {
		if time.Now().After(deadline) {
			break
		}
		req := int64(i)
		p.req.Store(req)
		if o.write {
			m := &in.models[o.model]
			err := rs.publish(m.Tenant, m.Name, m.doc(o.ver), req)
			c := causeNone
			if err != nil {
				c = causeStatus
			}
			acc.get("replay", "write").add(c)
			if err == nil {
				rs.ver[o.model] = o.ver
			}
			continue
		}
		top := p.tr.begin("request", -1, req)
		ctx := context.Background()
		scope := o.scope
		var want float64
		if in.tenant() {
			m := &in.models[o.model]
			ca, rec, err := rs.load(refOf(m), "", top, req)
			if err != nil {
				p.tr.end(top)
				return res, err
			}
			ctx = context.WithValue(ctx, modelKey{}, ca)
			scope = rec.Ref.String()
			if want, err = in.oracle.pfail(o.model, rs.ver[o.model], o.pool); err != nil {
				p.tr.end(top)
				return res, err
			}
		} else {
			want = paperOracle(true, o.params)
		}
		sid := p.tr.begin("server.serve", top, req)
		p.parent.Store(sid)
		ans := srv.Serve(ctx, server.Request{Service: in.service, Scope: scope, Params: o.params})
		p.tr.end(sid)
		p.tr.end(top)
		c := causeNone
		switch {
		case ans.Err != nil || ans.Kind.String() != "exact":
			c = causeDegraded
		case !agrees(ans.Pfail, want):
			c = causeOracle
		}
		tally.add(c)
		res.served++
		// Store-layer probes on every tenth request: a plain Get, and for
		// the paper workloads a cache load of the published paper model.
		switch {
		case i%10 != 0:
		case in.tenant():
			if err := rs.get(refOf(&in.models[o.model]), req); err != nil {
				return res, err
			}
		default:
			if err := rs.get(paperRef, req); err != nil {
				return res, err
			}
			if _, _, err := rs.load(paperRef, "remote", -1, req); err != nil {
				return res, err
			}
		}
	}
	res.wall = time.Since(start)
	res.srv = srv.Stats()
	res.est = est.Stats()
	res.cache = rs.cache.Stats()
	res.points = p.points.Load()
	if in.paper != nil {
		ps, ms := in.paper.ParametricStats(), in.paper.MemoStats()
		res.parametric, res.numeric = ps.ParametricPoints-baseP.ParametricPoints, ps.NumericPoints-baseP.NumericPoints
		res.memoHits, res.memoMisses = ms.Hits-baseM.Hits, ms.Misses-baseM.Misses
	}
	for ca := range rs.seen {
		if ca == in.paper {
			continue
		}
		ps, ms := ca.ParametricStats(), ca.MemoStats()
		res.parametric += ps.ParametricPoints
		res.numeric += ps.NumericPoints
		res.memoHits += ms.Hits
		res.memoMisses += ms.Misses
	}
	// Too few natural misses (the paper workloads have one model): time
	// loads through fresh caches.
	for i := len(durations(p.tr.snapshot(), "store.cache_load_miss")); i < 20; i++ {
		rs.cache = store.NewArtifactCache(64)
		ref, asm := paperRef, "remote"
		if in.tenant() {
			ref, asm = refOf(&in.models[i%len(in.models)]), ""
		}
		if _, _, err := rs.load(ref, asm, -1, -1); err != nil {
			return res, err
		}
	}
	return res, nil
}

// serveAllocs counts heap allocations per server.Serve call, untraced.
func serveAllocs(in *replayInput, n int) (float64, error) {
	est, err := estimate.New(estimate.Config{})
	if err != nil {
		return 0, err
	}
	p := &probe{}
	cfg := serverConfig(in.service)
	cfg.OnOutcome = observeHook(p, est)
	srv := server.New(&tracedEval{p: p, fixed: in.paper}, cfg)
	type call struct {
		ctx   context.Context
		scope string
		op    replayOp
	}
	var calls []call
	if in.tenant() {
		cache := store.NewArtifactCache(len(in.models))
		st := store.NewMem()
		for i := range in.models {
			m := &in.models[i]
			doc, err := adl.ParseDSL(m.doc(0))
			if err != nil {
				return 0, err
			}
			if _, err := st.Publish(m.Tenant, m.Name, doc, store.PublishOptions{}); err != nil {
				return 0, err
			}
		}
		for _, o := range in.ops {
			if o.write {
				continue
			}
			ca, rec, err := cache.Load(st, refOf(&in.models[o.model]), "", core.Options{})
			if err != nil {
				return 0, err
			}
			calls = append(calls, call{ctx: context.WithValue(context.Background(), modelKey{}, ca), scope: rec.Ref.String(), op: o})
			if len(calls) == n {
				break
			}
		}
	} else {
		for _, o := range in.ops[:min(n, len(in.ops))] {
			calls = append(calls, call{ctx: context.Background(), scope: o.scope, op: o})
		}
	}
	// Warm the server's stores, then count over the same calls again.
	for _, c := range calls {
		srv.Serve(c.ctx, server.Request{Service: in.service, Scope: c.scope, Params: c.op.params})
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range calls {
		srv.Serve(c.ctx, server.Request{Service: in.service, Scope: c.scope, Params: c.op.params})
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(calls)), nil
}

// fleetResult is what the fleet replay leaves for the metrics.
type fleetResult struct {
	served                                   int
	forwarded, rumorsRecv, rumorsSkip, estMg uint64
	maxKeys                                  int
}

// replayFleet serves in.ops through a three-replica cluster.Fleet, as
// cmd/relfleet does, driving one gossip round per in.gossip requests in
// place of the 100 ms background loop.
func replayFleet(in *replayInput, p *probe, acc *accounting, deadline time.Time) (fleetResult, error) {
	var res fleetResult
	ev := &tracedEval{p: p, fixed: in.paper}
	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas:     3,
		Node:         cluster.NodeConfig{GossipInterval: 100 * time.Millisecond},
		Server:       serverConfig(in.service),
		NewEvaluator: func(string) server.Evaluator { return ev },
		NewEstimator: func(string) *estimate.Estimator {
			est, err := estimate.New(estimate.Config{})
			if err != nil {
				panic(err) // the default config always validates
			}
			return est
		},
	})
	if err != nil {
		return res, err
	}
	defer f.Stop()
	var cas []*core.CompiledAssembly
	ver := make([]int, len(in.models))
	if in.tenant() {
		cas = make([]*core.CompiledAssembly, len(in.models))
	}
	tally := acc.get("replay-fleet", "read")
	for i, o := range in.ops {
		if time.Now().After(deadline) {
			break
		}
		if i%in.gossip == 0 {
			id := p.tr.begin("cluster.gossip", -1, int64(i))
			f.GossipRound()
			p.tr.end(id)
		}
		if o.write {
			ver[o.model] = o.ver
			cas[o.model] = nil
			continue
		}
		ctx := context.Background()
		scope := o.scope
		var want float64
		if in.tenant() {
			m := &in.models[o.model]
			if cas[o.model] == nil {
				doc, err := adl.ParseDSL(m.doc(ver[o.model]))
				if err != nil {
					return res, err
				}
				if cas[o.model], err = core.CompileDocument(doc, "main", core.Options{}); err != nil {
					return res, err
				}
			}
			ctx = context.WithValue(ctx, modelKey{}, cas[o.model])
			scope = fmt.Sprintf("%s@%d", m.ref(), ver[o.model]+1)
			if want, err = in.oracle.pfail(o.model, ver[o.model], o.pool); err != nil {
				return res, err
			}
		} else {
			want = paperOracle(true, o.params)
		}
		top := p.tr.begin("cluster.serve", -1, int64(i))
		p.parent.Store(top)
		p.req.Store(int64(i))
		ans := f.Serve(ctx, server.Request{Service: in.service, Scope: scope, Params: o.params})
		p.tr.end(top)
		c := causeNone
		switch {
		case ans.Err != nil || ans.Kind.String() != "exact":
			c = causeDegraded
		case !agrees(ans.Pfail, want):
			c = causeOracle
		}
		tally.add(c)
		res.served++
	}
	for _, n := range f.Nodes() {
		st := n.Stats()
		res.forwarded += st.Forwarded
		res.rumorsRecv += st.RumorsReceived
		res.rumorsSkip += st.RumorsSkipped
		res.estMg += st.EstimatesMerged
		if est := n.Estimator(); est != nil {
			res.maxKeys = max(res.maxKeys, est.Stats().Keys)
		}
	}
	return res, nil
}
