package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
)

// runHTTPTraced is the traced run of an HTTP workload: the same load
// untraced and then with client spans, a scrape of the binary's own
// counters, and the in-process replay of the same stream.
func runHTTPTraced(sp *httpSpec, plan phasePlan, seconds float64, rep *report) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	acc := &rep.acc
	proc, _, err := sp.setupOnce(acc)
	if err != nil {
		return err
	}
	tr := newTracer()
	r := &httpRun{sp: sp, c: newClient(proc.base), epoch: time.Now()}
	r.runPhase("warmup", sp.rate, plan.warm, nil)
	a := r.runPhase("untraced", sp.rate, plan.fixed, nil)
	b := r.runPhase("traced", sp.rate, plan.traced, tr)
	if m := scrape(r.c, "/stats"); m != nil {
		rep.note("binary /stats: " + compactJSON(m))
	}
	if sp.name == "fleet-scoped" {
		if m := scrape(r.c, "/cluster"); m != nil {
			rep.note("binary /cluster: " + compactJSON(m))
		}
	}
	r.c.close()
	proc.stop()
	causes := r.check(acc)
	la := summarize(latenciesMS(a, causes["untraced"]))
	lb := summarize(latenciesMS(b, causes["traced"]))
	rep.set("driver.trace_overhead_ratio", lb.P50/la.P50, "ratio", lb.N,
		fmt.Sprintf("traced p50 %.4f ms / untraced p50 %.4f ms", lb.P50, la.P50))
	rep.lag = summarize(append(lagsMS(a), lagsMS(b)...))
	rep.set("driver.send_lag_p99_ms", rep.lag.P99.Value, "ms", rep.lag.N, "")
	rep.checkLag(summarize(append(latenciesMS(a, nil), latenciesMS(b, nil)...)).P99.Value)

	in := &replayInput{service: "search", ops: replayOps(sp.ops), gossip: max(1, int(sp.rate/10))}
	if sp.tenant() {
		in.service, in.models, in.oracle = tenantService, sp.models, sp.oracle
	} else if in.paper, err = compilePaper(true); err != nil {
		return err
	}
	inner := "request"
	if sp.name == "fleet-scoped" {
		inner = "cluster.serve"
	}
	return replayAndReport(in, tr, rep, deadline, inner)
}

func compilePaper(remote bool) (*core.CompiledAssembly, error) {
	build := assembly.LocalAssembly
	if remote {
		build = assembly.RemoteAssembly
	}
	asm, err := build(paperParams)
	if err != nil {
		return nil, err
	}
	return core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, "search")
}

// replayAndReport runs the in-process replay and the engine probes in
// the time left, then derives every per-layer metric from the spans and
// the layers' counters. httpInner names the in-process span that matches
// what the binary does for one HTTP request.
func replayAndReport(in *replayInput, tr *tracer, rep *report, deadline time.Time, httpInner string) error {
	left := time.Until(deadline)
	if left < time.Second {
		left = time.Second
	}
	p := &probe{tr: tr}
	node, err := replayNode(in, p, &rep.acc, time.Now().Add(left*55/100))
	if err != nil {
		return err
	}
	parametric, numeric, hits, misses := node.parametric, node.numeric, node.memoHits, node.memoMisses
	rep.set("core.parametric_share", ratio(float64(parametric), float64(node.points)), "ratio", int(node.points),
		fmt.Sprintf("%d closed-form of %d evaluated points (%d numeric fallback points)", parametric, node.points, numeric))
	rep.set("core.memo_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", int(hits+misses), "")
	rep.set("server.shed", float64(node.srv.ShedQueueFull+node.srv.ShedClass+node.srv.ShedDeadline+node.srv.SweptExpired+node.srv.ShedDraining), "count", node.served, "")
	rep.set("server.hedges_launched", float64(node.srv.HedgesLaunched), "count", node.served, "")
	rep.set("server.hedge_win_ratio", ratio(float64(node.srv.HedgeWins), float64(node.srv.HedgesLaunched)), "ratio", int(node.srv.HedgesLaunched), "")
	rep.set("server.limit", node.srv.Limit, "slots", 1, "AIMD window after the replay")
	rep.set("estimate.keys", float64(node.est.Keys), "count", int(node.est.Observed), "")
	rep.set("store.cache_hit_ratio", ratio(float64(node.cache.Hits), float64(node.cache.Hits+node.cache.Misses)), "ratio", int(node.cache.Hits+node.cache.Misses), "")
	rep.set("store.cache_evictions", float64(node.cache.Evictions), "count", int(node.cache.Hits+node.cache.Misses), "")
	if _, ok := rep.metrics["core.wall_share"]; !ok {
		evals := durations(tr.snapshot(), "core.eval")
		sum := 0.0
		for _, d := range evals {
			sum += d
		}
		rep.set("core.wall_share", sum/float64(node.wall), "ratio", len(evals), "core.eval spans over the node replay's wall time")
	}

	fl, err := replayFleet(in, p, &rep.acc, time.Now().Add(time.Until(deadline)*65/100))
	if err != nil {
		return err
	}
	rep.set("cluster.forward_ratio", ratio(float64(fl.forwarded), float64(fl.served)), "ratio", fl.served, "")
	rep.set("cluster.rumors_skipped_ratio", ratio(float64(fl.rumorsSkip), float64(fl.rumorsRecv)), "ratio", int(fl.rumorsRecv), "")
	rep.set("cluster.estimates_merged", float64(fl.estMg), "count", int(fl.rumorsRecv), "")
	rep.note(fmt.Sprintf("fleet replay: %d requests, max estimator keys on a replica %d", fl.served, fl.maxKeys))

	if err := engineProbes(in, rep); err != nil {
		return err
	}
	allocs, err := serveAllocs(in, 2000)
	if err != nil {
		return err
	}
	rep.set("server.allocs_per_op", allocs, "allocs", 2000, "untraced Serve calls")

	spans := tr.snapshot()
	rep.spans = spans
	us := func(name string, xs []float64, note string) {
		d := summarize(xs)
		rep.set(name, d.P50/1e3, "us", d.N, note)
	}
	serveSelf := summarize(selfTimes(spans, "server.serve"))
	rep.set("server.serve_self_p50_us", serveSelf.P50/1e3, "us", serveSelf.N, "server.Serve minus core.eval and estimate.observe")
	rep.set("server.serve_self_p99_us", serveSelf.P99.Value/1e3, "us", serveSelf.N, fmt.Sprintf("%d samples beyond", serveSelf.P99.Beyond))
	eval := summarize(durations(spans, "core.eval"))
	rep.set("core.eval_p50_ns", eval.P50, "ns", eval.N, "")
	obs := summarize(durations(spans, "estimate.observe"))
	rep.set("estimate.observe_p50_ns", obs.P50, "ns", obs.N, "")
	us("adl.parse_p50_us", durations(spans, "adl.parse"), "")
	us("store.publish_p50_us", durations(spans, "store.publish"), "")
	us("store.get_p50_us", durations(spans, "store.get"), "")
	us("store.cache_load_hit_p50_us", durations(spans, "store.cache_load_hit"), "")
	us("store.cache_load_miss_p50_us", durations(spans, "store.cache_load_miss"), "")
	dec := summarize(durations(spans, "store.decode"))
	rep.note(fmt.Sprintf("store: Record.Document() decode p50 %.1f us (n=%d) against a cache hit p50 %.1f us: the hit path re-decodes the stored JSON",
		dec.P50/1e3, dec.N, rep.metrics["store.cache_load_hit_p50_us"].Value))
	us("cluster.serve_self_p50_us", selfTimes(spans, "cluster.serve"), "Fleet.Serve minus core.eval")
	gossip := summarize(durations(spans, "cluster.gossip"))
	rep.set("cluster.gossip_round_p50_ms", gossip.P50/1e6, "ms", gossip.N, "")

	// http.self is derived: the client round trip minus the in-process
	// span of the same request (relserve: request, which covers the cache
	// load and server.Serve; relfleet: cluster.serve; whatif-sweep:
	// server.serve_batch).
	rt := summarize(durations(spans, "http.roundtrip"))
	rep.set("http.roundtrip_p50_us", rt.P50/1e3, "us", rt.N, "client span")
	id := summarize(durations(spans, httpInner))
	rep.set("http.self_p50_us", (rt.P50-id.P50)/1e3, "us", rt.N, fmt.Sprintf("derived: http.roundtrip p50 minus %s p50", httpInner))
	return nil
}

// engineProbes times compilation and the batch kernel on the workload's
// own inputs.
func engineProbes(in *replayInput, rep *report) error {
	var compile []float64
	fallbacks := 0
	if in.tenant() {
		for i := range in.models[:16] {
			doc, err := adl.ParseDSL(in.models[i].doc(0))
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := core.CompileDocument(doc, "main", core.Options{}); err != nil {
				return err
			}
			compile = append(compile, float64(time.Since(t0)))
			// The closed form stored models would face if they were
			// compiled parametrically (they are not: store.ArtifactCache
			// compiles through core.Compile).
			asm, err := doc.BuildAssembly("main")
			if err != nil {
				return err
			}
			ca, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, tenantService)
			if err != nil {
				return err
			}
			fallbacks += ca.ParametricStats().Fallbacks
		}
	} else {
		for i := 0; i < 9; i++ {
			t0 := time.Now()
			if _, err := compilePaper(true); err != nil {
				return err
			}
			compile = append(compile, float64(time.Since(t0)))
		}
		fallbacks = in.paper.ParametricStats().Fallbacks
	}
	cd := summarize(compile)
	rep.set("core.compile_p50_ms", cd.P50/1e6, "ms", cd.N, "")
	rep.set("core.parametric_fallbacks", float64(fallbacks), "count", cd.N, "root outputs with no closed form")
	if rep.metrics["core.batch_ns_per_point"].N > 0 {
		return nil // whatif-sweep measured its batches directly
	}

	// Batch probe: the stream's points in batches through the workload's
	// evaluator (tenant-mix: each model's parameter pool, as one batch).
	type batch struct {
		ca     *core.CompiledAssembly
		points [][]float64
	}
	var batches []batch
	if in.tenant() {
		for i := range in.models {
			doc, err := adl.ParseDSL(in.models[i].doc(0))
			if err != nil {
				return err
			}
			ca, err := core.CompileDocument(doc, "main", core.Options{})
			if err != nil {
				return err
			}
			batches = append(batches, batch{ca: ca, points: in.models[i].Pool})
		}
	} else {
		var pts [][]float64
		for _, o := range in.ops {
			if pts = append(pts, o.params); len(pts) == 256 {
				batches = append(batches, batch{ca: in.paper, points: pts})
				pts = nil
			}
			if len(batches) == 64 {
				break
			}
		}
	}
	ctx := context.Background()
	var perPoint []float64
	var m0, m1 runtime.MemStats
	points := 0
	runtime.ReadMemStats(&m0)
	for _, b := range batches {
		t0 := time.Now()
		if _, err := b.ca.PfailBatchCtx(ctx, in.service, b.points); err != nil {
			return err
		}
		perPoint = append(perPoint, float64(time.Since(t0))/float64(len(b.points)))
		points += len(b.points)
	}
	runtime.ReadMemStats(&m1)
	bd := summarize(perPoint)
	rep.set("core.batch_ns_per_point", bd.P50, "ns", bd.N, fmt.Sprintf("median over batches of %d points", len(batches[0].points)))
	rep.set("core.allocs_per_point", float64(m1.Mallocs-m0.Mallocs)/float64(points), "allocs", points, "")
	return nil
}
