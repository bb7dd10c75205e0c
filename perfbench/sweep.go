package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"socrel/internal/core"
	"socrel/internal/server"
)

// sweepPoints is the grid size of one whatif-sweep call: large enough
// that the batch kernel's lanes and GOMAXPROCS fan-out do the work.
const sweepPoints = 4096

// sweepWindow is the number of calls whose rates make one window.
const sweepWindow = 100

// httpBatchPoints is the grid size the traced run sends over
// /predict/batch for comparison.
const httpBatchPoints = 256

// sweeper is whatif-sweep's single closed-loop caller.
type sweeper struct {
	local, remote *core.CompiledAssembly
	r             *rand.Rand
	grid          [][]float64
	k             int
	acc           *accounting
}

// callRec is one timed PfailBatchCtx call.
type callRec struct {
	dur, cpu, gap time.Duration
	points        int
}

// phase calls PfailBatchCtx over fresh grids, alternating the two
// assemblies, until d has passed. Only the call itself is timed; grid
// generation and the oracle run between calls.
func (sw *sweeper) phase(name string, d time.Duration, tr *tracer) []callRec {
	ctx := context.Background()
	end := time.Now().Add(d)
	var recs []callRec
	var last time.Time
	for time.Now().Before(end) {
		gid := sw.ownSpan(tr, "bench.gen", -1)
		sweepGrid(sw.r, sw.grid)
		sw.ownSpan(tr, "", gid)
		remote := sw.k%2 == 0
		sw.k++
		ca := sw.local
		if remote {
			ca = sw.remote
		}
		var id int32
		c0 := selfCPU()
		t0 := time.Now()
		if tr != nil {
			id = tr.begin("core.batch", -1, int64(sw.k))
		}
		out, err := ca.PfailBatchCtx(ctx, "search", sw.grid)
		if tr != nil {
			tr.end(id)
		}
		t1 := time.Now()
		c1 := selfCPU()
		var gap time.Duration
		if !last.IsZero() {
			gap = t0.Sub(last)
		}
		last = t1
		oid := sw.ownSpan(tr, "bench.oracle", -1)
		t := sw.acc.get(name, "point")
		for i := range sw.grid {
			c := causeNone
			switch {
			case err != nil:
				c = causeStatus
			case !agrees(out[i], paperOracle(remote, sw.grid[i])):
				c = causeOracle
			}
			t.add(c)
		}
		sw.ownSpan(tr, "", oid)
		recs = append(recs, callRec{dur: t1.Sub(t0), cpu: c1 - c0, gap: gap, points: len(sw.grid)})
	}
	return recs
}

// ownSpan opens a span of the benchmark's own work between calls
// (name set) or closes one (name empty), when tracing.
func (sw *sweeper) ownSpan(tr *tracer, name string, id int32) int32 {
	switch {
	case tr == nil:
	case name != "":
		return tr.begin(name, -1, int64(sw.k))
	default:
		tr.end(id)
	}
	return -1
}

func callMS(recs []callRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = float64(r.dur) / 1e6
	}
	return out
}

// runSweep runs whatif-sweep: set-up compiles the local and remote paper
// assemblies to closed forms; one closed-loop caller then evaluates
// large never-repeating grids.
func runSweep(seed uint64, seconds float64, traced bool, binDir string, rep *report) error {
	acc := &rep.acc
	sw := &sweeper{r: newRand("whatif-sweep", seed, "grids"), grid: newGrid(sweepPoints), acc: acc}
	sr := newRand("whatif-sweep", seed, "setup")
	launches := setupLaunches
	if traced {
		launches = 1
	}
	var setups []float64
	for k := 0; k < launches; k++ {
		pt := paperPoint(sr)
		t0 := time.Now()
		local, err := compilePaper(false)
		if err != nil {
			return err
		}
		remote, err := compilePaper(true)
		if err != nil {
			return err
		}
		vl, errl := local.Pfail("search", pt...)
		vr, errr := remote.Pfail("search", pt...)
		d := time.Since(t0)
		for _, c := range []struct {
			err    error
			v      float64
			remote bool
		}{{errl, vl, false}, {errr, vr, true}} {
			cs := causeNone
			switch {
			case c.err != nil:
				cs = causeStatus
			case !agrees(c.v, paperOracle(c.remote, pt)):
				cs = causeOracle
			}
			acc.get("setup", "point").add(cs)
			if cs != causeNone {
				return fmt.Errorf("set-up answer failed: %s", causeNames[cs])
			}
		}
		setups = append(setups, d.Seconds())
		sw.local, sw.remote = local, remote
	}
	sd := summarize(setups)
	rep.set("setup_s", sd.P50, "s", sd.N, "median of CompileParametric(local)+CompileParametric(remote)+first answers")

	total := time.Duration(seconds * float64(time.Second))
	deadline := time.Now().Add(total)
	sw.phase("warmup", max(500*time.Millisecond, total/20), nil)
	if !traced {
		recs := sw.phase("fixed", time.Until(deadline), nil)
		// Rates are medians over windows of sweepWindow calls, so a burst
		// of interference from outside the run moves them less.
		var pps, cps, cpu, p50s []float64
		for i := 0; i+sweepWindow <= len(recs); i += sweepWindow {
			p50s = append(p50s, summarize(callMS(recs[i:i+sweepWindow])).P50)
			var busy, used time.Duration
			points := 0
			for _, r := range recs[i : i+sweepWindow] {
				busy += r.dur
				used += r.cpu
				points += r.points
			}
			pps = append(pps, float64(points)/busy.Seconds())
			cps = append(cps, float64(sweepWindow)/busy.Seconds())
			cpu = append(cpu, float64(used)/1e3/float64(points))
		}
		if len(pps) == 0 {
			return fmt.Errorf("whatif-sweep made %d calls, fewer than one window of %d", len(recs), sweepWindow)
		}
		lat := summarize(callMS(recs))
		rep.setDist("latency", lat)
		note := fmt.Sprintf("median of %d windows of %d calls of %d points", len(pps), sweepWindow, sweepPoints)
		rep.set("latency_p50_ms", interquartileMean(p50s), "ms", lat.N,
			fmt.Sprintf("interquartile mean of the medians of %d windows of %d calls; whole-phase median %.4f ms", len(p50s), sweepWindow, lat.P50))
		rep.set("points_per_s", summarize(pps).P50, "points/s", len(recs), note+", over time inside PfailBatchCtx")
		rep.set("max_rps", summarize(cps).P50, "req/s", len(recs), note+": closed-loop PfailBatchCtx calls per second of call time")
		rep.set("cpu_us_per_op", summarize(cpu).P50, "us", len(recs)*sweepPoints, note+": own rusage inside the calls, per point")
		hwm, err := procHWM(os.Getpid())
		if err != nil {
			return err
		}
		rep.set("peak_rss_mb", float64(hwm)/(1<<20), "MiB", 1, "benchmark process VmHWM")
		return nil
	}

	// Traced: the same loop untraced and then with a span per call.
	tr := newTracer()
	a := sw.phase("untraced", total*15/100, nil)
	bStart := time.Now()
	b := sw.phase("traced", total*15/100, tr)
	bWall := time.Since(bStart)
	la, lb := summarize(callMS(a)), summarize(callMS(b))
	rep.set("driver.trace_overhead_ratio", lb.P50/la.P50, "ratio", lb.N,
		fmt.Sprintf("traced p50 %.4f ms / untraced p50 %.4f ms", lb.P50, la.P50))
	var gaps, perPoint []float64
	var inCore time.Duration
	for _, r := range b {
		if r.gap > 0 {
			gaps = append(gaps, float64(r.gap)/1e6)
		}
		perPoint = append(perPoint, float64(r.dur)/float64(r.points))
		inCore += r.dur
	}
	rep.lag = summarize(gaps)
	rep.set("driver.send_lag_p99_ms", rep.lag.P99.Value, "ms", rep.lag.N, "closed loop: caller's gap between calls (grid generation and oracle)")
	pp := summarize(perPoint)
	rep.set("core.batch_ns_per_point", pp.P50, "ns", pp.N, fmt.Sprintf("median over %d-point calls", sweepPoints))
	var own float64
	for _, s := range tr.snapshot() {
		if s.Name == "bench.gen" || s.Name == "bench.oracle" {
			own += float64(s.dur())
		}
	}
	rep.set("core.wall_share", float64(inCore)/(float64(bWall)-own), "ratio", len(b),
		fmt.Sprintf("core.batch spans over the traced phase's wall time less the benchmark's own grid generation and oracle (%.0f%% of it)", 100*own/float64(bWall)))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 20; i++ {
		if _, err := sw.remote.PfailBatchCtx(context.Background(), "search", sw.grid); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	rep.set("core.allocs_per_point", float64(m1.Mallocs-m0.Mallocs)/float64(20*sweepPoints), "allocs", 20*sweepPoints, "")

	grids, err := sweepHTTP(filepath.Join(binDir, "relserve"), sw, tr, acc, total*10/100)
	if err != nil {
		return err
	}
	// The same grids through server.ServeBatch in process: the span the
	// HTTP round trip is compared with.
	p := &probe{tr: tr}
	srv := server.New(&tracedEval{p: p, fixed: sw.remote}, serverConfig("search"))
	t := acc.get("replay-batch", "point")
	for i, g := range grids {
		id := tr.begin("server.serve_batch", -1, int64(i))
		p.parent.Store(id)
		ans := srv.ServeBatch(context.Background(), server.BatchRequest{Service: "search", ParamSets: g, Priority: server.Batch})
		tr.end(id)
		for j, a := range ans {
			c := causeNone
			switch {
			case a.Err != nil:
				c = causeDegraded
			case !agrees(a.Pfail, paperOracle(true, g[j])):
				c = causeOracle
			}
			t.add(c)
		}
	}

	rr := newRand("whatif-sweep", seed, "replay")
	ops := make([]replayOp, 200000)
	for i := range ops {
		ops[i] = replayOp{model: -1, params: paperPoint(rr)}
	}
	in := &replayInput{service: "search", ops: ops, paper: sw.remote, gossip: 100}
	return replayAndReport(in, tr, rep, deadline, "server.serve_batch")
}

// sweepHTTP sends httpBatchPoints-point grids to a relserve over
// /predict/batch in a closed loop for d, with a client span per round
// trip, checks every answer, and returns the grids it sent.
func sweepHTTP(bin string, sw *sweeper, tr *tracer, acc *accounting, d time.Duration) ([][][]float64, error) {
	proc, err := launch(bin, "-paper", "remote")
	if err != nil {
		return nil, err
	}
	defer proc.stop()
	c := newClient(proc.base)
	defer c.close()
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		if _, err := c.get("/healthz"); err == nil {
			break
		}
		if proc.exited() || time.Since(start) > 30*time.Second {
			return nil, fmt.Errorf("%s did not start", bin)
		}
	}
	var grids [][][]float64
	t := acc.get("http-batch", "point")
	for end := time.Now().Add(d); time.Now().Before(end); {
		g := newGrid(httpBatchPoints)
		sweepGrid(sw.r, g)
		grids = append(grids, g)
		body := batchBody(g)
		start := tr.now()
		resp, err := c.hc.Post(c.base+"/predict/batch", "application/json", strings.NewReader(body))
		var out struct {
			Answers []wireAnswer `json:"answers"`
		}
		status := 0
		if err == nil {
			status = resp.StatusCode
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		tr.add(span{Name: "http.roundtrip", Start: start, End: tr.now(), Parent: -1, Req: int64(len(grids))})
		for j := range g {
			cs := causeNone
			switch {
			case err != nil:
				cs = causeTransport
			case status/100 != 2:
				cs = causeStatus
			case len(out.Answers) != len(g) || out.Answers[j].Kind != "exact":
				cs = causeDegraded
			case !agrees(out.Answers[j].Pfail, paperOracle(true, g[j])):
				cs = causeOracle
			}
			t.add(cs)
		}
	}
	return grids, nil
}

func batchBody(g [][]float64) string {
	var b strings.Builder
	b.WriteString(`{"service":"search","priority":"batch","param_sets":[`)
	for i, p := range g {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%s,%s,%s]", fmtFloat(p[0]), fmtFloat(p[1]), fmtFloat(p[2]))
	}
	b.WriteString("]}")
	return b.String()
}
