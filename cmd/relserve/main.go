// Command relserve serves reliability predictions over HTTP through the
// overload-resilient serving layer: admission control, AIMD concurrency
// limiting, priority-class load shedding, request hedging, and the
// graceful-degradation ladder (exact → stale → bounded → unavailable).
//
// Usage:
//
//	relserve -paper local -service search -listen :8080
//	relserve -file system.adl -assembly local -service search -listen :8080
//	relserve -store ./models -service search -listen :8080
//
// Endpoints:
//
//	POST /predict        {"service":"search","params":[1,4096,1],"priority":"interactive","timeout_ms":250}
//	POST /predict/batch  {"service":"search","param_sets":[[1,4096,1],[2,4096,1]],"priority":"batch"}
//	GET  /healthz        200 while accepting load, 503 at overload
//	GET  /stats          admission/shedding/hedging counters, artifact-cache and estimator counters
//	GET  /estimates      per-bucket fitted failure rates with confidence intervals and drift verdicts
//
// Every completed evaluation also feeds an online failure-parameter
// estimator (windowed MLE per evaluated service), so /estimates shows
// what the serving tier has actually observed next to what the model
// predicts.
//
// With a model store (-store DIR for the durable disk store, or the
// default in-memory store) the server is multi-tenant:
//
//	GET    /models                        list every stored model
//	PUT    /models/{tenant}/{model}       publish a version (body: ADL DSL or JSON; ?expect=N for CAS)
//	GET    /models/{tenant}/{model}       fetch a version (?version=N, default latest)
//	DELETE /models/{tenant}/{model}       drop a model and its versions
//	POST   /predict?model=tenant/m@3      predict against a stored version (?assembly=NAME)
//
// /predict?model= resolves through an LRU cache of compiled artifacts;
// omitting @version pins nothing and re-resolves latest per request,
// while @N keeps serving that exact version no matter what is published.
//
// Every /predict response carries a "kind" tag; degraded answers (stale,
// bounded, unavailable) also carry the causing "error". Shed requests
// return 503 with a Retry-After hint.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"socrel/internal/adl"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/httpapi"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
	"socrel/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("relserve", flag.ContinueOnError)
	file := fs.String("file", "", "ADL file (.adl DSL or .json); '-' reads stdin")
	asmName := fs.String("assembly", "", "assembly name within the document")
	paper := fs.String("paper", "", "use the built-in paper example: 'local' or 'remote'")
	service := fs.String("service", "search", "default service to evaluate")
	listen := fs.String("listen", ":8080", "address to listen on")
	queueCap := fs.Int("queue", 64, "admission queue capacity")
	maxConc := fs.Int("max-concurrency", 0, "AIMD limiter ceiling (0 = 4×GOMAXPROCS)")
	latencyTarget := fs.Duration("latency-target", 50*time.Millisecond, "per-evaluation latency the limiter steers toward")
	noHedge := fs.Bool("no-hedge", false, "disable request hedging")
	fixedPoint := fs.Bool("fixedpoint", false, "solve recursive assemblies by fixed-point iteration")
	storeDir := fs.String("store", "", "model store directory (':memory:' = volatile in-memory store)")
	cacheCap := fs.Int("cache", 64, "compiled-artifact cache capacity")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "how long SIGTERM waits for in-flight work before exiting")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := core.Options{}
	if *fixedPoint {
		opts.Cycles = core.CycleFixedPoint
	}

	if *file == "" && *paper == "" && *storeDir == "" {
		return errors.New("nothing to serve: pass -file or -paper for a default model, and/or -store for a model store")
	}
	var st store.Store
	if *storeDir != "" && *storeDir != ":memory:" {
		disk, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		st = disk
	} else {
		st = store.NewMem()
	}
	defer st.Close()
	host := newModelHost(st, *cacheCap, opts)

	// A default assembly is optional: a store-only server answers
	// /predict?model= requests, and a bare /predict call comes back
	// unavailable with a 500 (errNoDefaultModel).
	var eval server.Evaluator
	var ca *core.CompiledAssembly
	mode := "store-only"
	if *file != "" || *paper != "" {
		asm, err := httpapi.LoadAssembly(*file, *asmName, *paper)
		if err != nil {
			return err
		}
		var newEval func(string) server.Evaluator
		if newEval, ca, mode, err = httpapi.EvaluatorFactory(asm, opts, *service); err != nil {
			return err
		}
		eval = newEval("")
	}
	est, err := estimate.New(estimate.Config{})
	if err != nil {
		return err
	}
	srv := server.New(&dispatchEval{fallback: eval}, server.Config{
		Service:       *service,
		QueueCapacity: *queueCap,
		Limiter:       server.LimiterConfig{Max: *maxConc, LatencyTarget: *latencyTarget},
		Hedge:         server.HedgeConfig{Disabled: *noHedge},
		OnOutcome:     estimateFeed(est),
	})

	fmt.Fprintf(out, "relserve: serving %q (%s engine) on %s\n", *service, mode, *listen)
	hs := &http.Server{Addr: *listen, Handler: newMux(srv, host, est, ca)}

	// Graceful shutdown: on SIGTERM/SIGINT the admission layer closes
	// first — new requests shed as 503 + Retry-After while the listener
	// stays up — in-flight and queued work finishes within the drain
	// deadline, and only then does the HTTP server stop.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "relserve: draining")
	if err := drainAndReport(srv, out, *drainTimeout); err != nil {
		fmt.Fprintln(out, "relserve: drain:", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return hs.Shutdown(shutCtx)
}

// drainAndReport drains the serving layer and prints the final stats
// line — the last evidence a terminated replica leaves behind. Split
// from run so tests drive it on a fake clock.
func drainAndReport(srv *server.Server, out io.Writer, timeout time.Duration) error {
	st, err := srv.Drain(context.Background(), timeout)
	fmt.Fprintf(out, "relserve: final stats: offered=%d exact=%d stale=%d bounded=%d unavailable=%d shed_draining=%d inflight=%d queue_depth=%d\n",
		st.Offered, st.Exact, st.Stale, st.Bounded, st.Unavailable, st.ShedDraining, st.Inflight, st.QueueDepth)
	return err
}

// modelHost bundles the model store with its compiled-artifact cache.
type modelHost struct {
	st    store.Store
	cache *store.ArtifactCache
	opts  core.Options
}

func newModelHost(st store.Store, cacheCap int, opts core.Options) *modelHost {
	return &modelHost{st: st, cache: store.NewArtifactCache(cacheCap), opts: opts}
}

// modelCtxKey carries the request's compiled artifact from the HTTP
// handler through the admission-controlled server to the evaluator, so
// every tenant model is served with full admission control, hedging, and
// degradation without one server instance per model.
type modelCtxKey struct{}

// dispatchEval routes an evaluation to the compiled artifact selected by
// the request (via modelCtxKey), falling back to the default assembly's
// evaluator when the request names no model.
type dispatchEval struct {
	fallback server.Evaluator
}

// errNoDefaultModel is returned for bare /predict calls on a store-only
// server.
var errNoDefaultModel = errors.New("no default assembly loaded; select a stored model with ?model=tenant/name[@version]")

func (d *dispatchEval) resolve(ctx context.Context) (server.Evaluator, error) {
	if ca, ok := ctx.Value(modelCtxKey{}).(*core.CompiledAssembly); ok && ca != nil {
		return ca, nil
	}
	if d.fallback == nil {
		return nil, errNoDefaultModel
	}
	return d.fallback, nil
}

func (d *dispatchEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	eval, err := d.resolve(ctx)
	if err != nil {
		return 0, err
	}
	return eval.PfailCtx(ctx, service, params...)
}

// PfailBatchCtx keeps the batch fast path: when the effective evaluator
// has a batch kernel it is used directly, otherwise the server's
// per-point fallback takes over.
func (d *dispatchEval) PfailBatchCtx(ctx context.Context, service string, paramSets [][]float64) ([]float64, error) {
	eval, err := d.resolve(ctx)
	if err != nil {
		return nil, err
	}
	if be, ok := eval.(server.BatchEvaluator); ok {
		return be.PfailBatchCtx(ctx, service, paramSets)
	}
	// Mirror the batch partial-results contract: NaN at failed points,
	// lowest-indexed error reported.
	out := make([]float64, len(paramSets))
	for i := range out {
		out[i] = math.NaN()
	}
	var firstErr error
	for i, params := range paramSets {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("batch point %d: %w: %w", i, core.ErrCanceled, err)
			}
			break
		}
		p, err := eval.PfailCtx(ctx, service, params...)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("batch point %d: %w", i, err)
			}
			continue
		}
		out[i] = p
	}
	return out, firstErr
}

// modelContext resolves an optional ?model=tenant/name[@version] query
// parameter into a request context carrying the compiled artifact, plus
// the stale-store scope (the concrete resolved version, so degraded
// answers never cross models or versions). The bool reports whether the
// response has already been written (error). The query, not the body,
// picks the scope: a body "scope" is ignored. A nil host answers any
// ?model= with 404.
func (host *modelHost) modelContext(w http.ResponseWriter, r *http.Request) (context.Context, string, bool) {
	ctx := r.Context()
	q := r.URL.Query()
	m := q.Get("model")
	if m == "" {
		return ctx, "", false
	}
	if host == nil {
		httpapi.Error(w, http.StatusNotFound, errors.New("no model store configured"))
		return nil, "", true
	}
	ref, err := store.ParseRef(m)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, err)
		return nil, "", true
	}
	asm := q.Get("assembly")
	ca, rec, err := host.cache.Load(host.st, ref, asm, host.opts)
	if err != nil {
		httpapi.Fail(w, err)
		return nil, "", true
	}
	scope := rec.Ref.String()
	if asm != "" {
		scope += "#" + asm
	}
	return context.WithValue(ctx, modelCtxKey{}, ca), scope, false
}

// estimateFeed adapts the server's outcome stream into estimator
// observations: the evaluated service is the estimation bucket's
// provider and the request scope its context.
func estimateFeed(est *estimate.Estimator) func(server.Outcome) {
	return func(o server.Outcome) {
		est.Observe(estimate.Outcome{
			Provider: o.Service,
			Context:  o.Scope,
			Failed:   !o.Success,
			Latency:  o.Latency,
			At:       o.At,
		})
	}
}

// registerEstimateRoutes wires the estimator's read surface.
func registerEstimateRoutes(mux *http.ServeMux, est *estimate.Estimator) {
	mux.HandleFunc("GET /estimates", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"estimates": httpapi.Estimates(est)})
	})
}

// newMux builds the HTTP handler over an admission-controlled server, a
// model host, and an optional estimator. Split from run so tests drive
// it with httptest. ca, when non-nil, is the default assembly's compiled
// artifact; /stats then reports which evaluation path (closed-form
// parametric vs numeric kernel) served the traffic.
func newMux(srv *server.Server, host *modelHost, est *estimate.Estimator, ca *core.CompiledAssembly) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /predict", httpapi.Predict(srv.Serve, host.modelContext))

	mux.HandleFunc("POST /predict/batch", func(w http.ResponseWriter, r *http.Request) {
		req, pri, ok := httpapi.DecodePredict(w, r)
		if !ok {
			return
		}
		if req.Priority == "" {
			pri = server.Batch // batches default to the batch class
		}
		ctx, scope, done := host.modelContext(w, r)
		if done {
			return
		}
		answers := srv.ServeBatch(ctx, server.BatchRequest{
			Service:   req.Service,
			Scope:     scope,
			ParamSets: req.ParamSets,
			Priority:  pri,
			Timeout:   time.Duration(req.TimeoutMS) * time.Millisecond,
		})
		resp := make([]httpapi.PredictResponse, len(answers))
		status := http.StatusOK
		exact := 0
		for i, a := range answers {
			resp[i] = httpapi.ToResponse(a)
			if a.Kind == socruntime.Exact {
				exact++
			}
		}
		// A batch where nothing was usable reports the shed status.
		if len(answers) > 0 && exact == 0 && httpapi.AnswerStatus(answers[0]) == http.StatusServiceUnavailable {
			status = http.StatusServiceUnavailable
		}
		httpapi.Reply(w, status, map[string]any{"answers": resp})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		sat := srv.Saturation()
		status := http.StatusOK
		state := "ok"
		if sat == server.SatOverload {
			status = http.StatusServiceUnavailable
			state = "overloaded"
		}
		httpapi.WriteJSON(w, status, map[string]string{"status": state, "saturation": sat.String()})
	})

	if host != nil {
		registerModelRoutes(mux, host)
	}
	if est != nil {
		registerEstimateRoutes(mux, est)
	}

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st := srv.Stats()
		stats := map[string]any{
			"offered":              st.Offered,
			"admitted":             st.Admitted,
			"exact":                st.Exact,
			"stale":                st.Stale,
			"bounded":              st.Bounded,
			"unavailable":          st.Unavailable,
			"shed_queue_full":      st.ShedQueueFull,
			"shed_class":           st.ShedClass,
			"shed_deadline":        st.ShedDeadline,
			"shed_draining":        st.ShedDraining,
			"draining":             srv.Draining(),
			"swept_expired":        st.SweptExpired,
			"canceled_waiting":     st.CanceledWaiting,
			"hedges_launched":      st.HedgesLaunched,
			"hedge_wins":           st.HedgeWins,
			"limit":                st.Limit,
			"inflight":             st.Inflight,
			"queue_depth":          st.QueueDepth,
			"estimated_latency_us": st.EstimatedLatency.Microseconds(),
			"hedge_delay_us":       st.HedgeDelay.Microseconds(),
			"saturation":           st.Saturation.String(),
		}
		if host != nil {
			cs := host.cache.Stats()
			stats["artifact_cache"] = map[string]any{
				"hits":      cs.Hits,
				"misses":    cs.Misses,
				"evictions": cs.Evictions,
				"entries":   cs.Entries,
			}
		}
		if est != nil {
			stats["estimator"] = httpapi.Estimator(est)
		}
		if ca != nil {
			stats["parametric"] = httpapi.Parametric(ca)
		}
		httpapi.WriteJSON(w, http.StatusOK, stats)
	})

	return mux
}

// modelMeta is the wire form of one stored model in listings.
type modelMeta struct {
	Ref      string `json:"ref"`
	Tenant   string `json:"tenant"`
	Model    string `json:"model"`
	Latest   int    `json:"latest"`
	Versions int    `json:"versions"`
	Hash     string `json:"hash"`
}

// recordMeta is the wire form of one stored version.
type recordMeta struct {
	Ref       string          `json:"ref"`
	Tenant    string          `json:"tenant"`
	Model     string          `json:"model"`
	Version   int             `json:"version"`
	Hash      string          `json:"hash"`
	CreatedAt time.Time       `json:"created_at"`
	Comment   string          `json:"comment,omitempty"`
	Document  json.RawMessage `json:"document,omitempty"`
}

func toRecordMeta(rec store.Record, withDoc bool) recordMeta {
	m := recordMeta{
		Ref:       rec.Ref.String(),
		Tenant:    rec.Tenant,
		Model:     rec.Model,
		Version:   rec.Version,
		Hash:      rec.Hash,
		CreatedAt: rec.CreatedAt,
		Comment:   rec.Comment,
	}
	if withDoc {
		m.Document = json.RawMessage(rec.Source)
	}
	return m
}

// maxModelBytes caps a published model body. A larger body is refused
// with 413 rather than cut short: a DSL document truncated at a line
// boundary can still parse, and would publish as a partial model.
const maxModelBytes = 4 << 20

// registerModelRoutes wires the model-store CRUD under /models.
func registerModelRoutes(mux *http.ServeMux, host *modelHost) {
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		tenants, err := host.st.Tenants()
		if err != nil {
			httpapi.Fail(w, err)
			return
		}
		models := []modelMeta{}
		for _, tenant := range tenants {
			names, err := host.st.Models(tenant)
			if err != nil {
				httpapi.Fail(w, err)
				return
			}
			for _, name := range names {
				versions, err := host.st.Versions(tenant, name)
				if err != nil || len(versions) == 0 {
					continue // deleted between listing and read
				}
				latest := versions[len(versions)-1]
				models = append(models, modelMeta{
					Ref:      tenant + "/" + name,
					Tenant:   tenant,
					Model:    name,
					Latest:   latest.Version,
					Versions: len(versions),
					Hash:     latest.Hash,
				})
			}
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"models": models})
	})

	mux.HandleFunc("GET /models/{tenant}/{model}", func(w http.ResponseWriter, r *http.Request) {
		ref := store.Ref{Tenant: r.PathValue("tenant"), Model: r.PathValue("model")}
		if v := r.URL.Query().Get("version"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				httpapi.Error(w, http.StatusBadRequest, fmt.Errorf("bad version %q (want a positive integer)", v))
				return
			}
			ref.Version = n
		}
		rec, err := host.st.Get(ref)
		if err != nil {
			httpapi.Fail(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, toRecordMeta(rec, true))
	})

	mux.HandleFunc("PUT /models/{tenant}/{model}", func(w http.ResponseWriter, r *http.Request) {
		tenant, model := r.PathValue("tenant"), r.PathValue("model")
		popts := store.PublishOptions{Comment: r.URL.Query().Get("comment")}
		if e := r.URL.Query().Get("expect"); e != "" {
			n, err := strconv.Atoi(e)
			if err != nil {
				httpapi.Error(w, http.StatusBadRequest, fmt.Errorf("bad expect %q (want an integer; -1 = must not exist)", e))
				return
			}
			popts.ExpectedLatest = n
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxModelBytes))
		if err != nil {
			status := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				status = http.StatusRequestEntityTooLarge
			}
			httpapi.Error(w, status, err)
			return
		}
		doc, err := adl.Decode(data)
		if err != nil {
			httpapi.Error(w, http.StatusUnprocessableEntity, err)
			return
		}
		rec, err := host.st.Publish(tenant, model, doc, popts)
		if err != nil {
			httpapi.Fail(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, toRecordMeta(rec, false))
	})

	mux.HandleFunc("DELETE /models/{tenant}/{model}", func(w http.ResponseWriter, r *http.Request) {
		tenant, model := r.PathValue("tenant"), r.PathValue("model")
		if err := host.st.Delete(tenant, model); err != nil {
			httpapi.Fail(w, err)
			return
		}
		host.cache.Invalidate(tenant, model)
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"deleted": tenant + "/" + model})
	})
}
