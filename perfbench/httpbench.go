package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyLimit is the p99 limit a ramp step must meet for its rate to
// count toward max_rps. It sits above the 2-12 ms stalls this class of
// shared two-CPU virtual machine shows even when idle, and above the
// compile and gossip pauses of tenant-mix and fleet-scoped (their p99
// hovers at 10-30 ms at any rate), so a step fails when queueing builds,
// which the backlog rule catches, not when a stray pause lands in it.
const latencyLimit = 50 * time.Millisecond

// rampBacklog is the send lateness above which a ramp step's backlog
// counts as growing.
const rampBacklog = 2 * time.Millisecond

// cpuWindow is the length of the fixed-phase windows the server's CPU
// time is read over: long enough for a few dozen 10 ms clock ticks at the
// lowest fixed rate.
const cpuWindow = 2 * time.Second

// maxFailedRatio is the failed-operation share a ramp step may have.
const maxFailedRatio = 0.01

// setupLaunches is how many times set-up is repeated; setup_s is the
// median.
const setupLaunches = 5

// httpSpec describes one HTTP workload.
type httpSpec struct {
	name    string
	bin     string
	args    []string
	rate    float64 // fixed-phase offered rate, req/s
	models  []modelSpec
	ops     []op
	setupOp op
	oracle  *tenantOracle
}

func (sp *httpSpec) tenant() bool { return sp.models != nil }

// replayOpsPerSecond bounds how many extra stream operations a traced
// run generates for its in-process replay.
const replayOpsPerSecond = 10000

// The ramp finds the highest rate the server sustains within the limits
// with an up-down staircase: after a one-second closed-loop probe of
// capacity, each open-loop step raises the rate if it passes and lowers
// it if it fails, by rampCoarse until the first reversal and by rampFine
// after it. max_rps is the median rate of the steps from the first
// reversal on, which sit on both sides of the edge: one step broken by a
// host stall, or one lucky step, cannot move it far.
const (
	rampProbe      = time.Second
	rampProbeStart = 0.7 // first step, as a share of the closed-loop probe's rate
	rampCoarse     = 1.15
	rampFine       = 1.05
	rampStepMin    = 400 * time.Millisecond
	rampMaxRate    = 20000 // req/s; bounds the generated stream
)

// phasePlan splits one run's measuring time.
type phasePlan struct {
	warm, fixed, traced, ramp time.Duration
}

// ops bounds the operations a run can consume.
func (p phasePlan) ops(rate float64) int {
	return int((p.warm+p.fixed+p.traced).Seconds()*rate+p.ramp.Seconds()*rampMaxRate) + 1
}

// planHTTP sizes the phases of an HTTP run of the given length. An
// untraced run has warm-up, a fixed-rate phase and a ramp; a traced run
// has warm-up, an untraced and a traced fixed-rate phase of equal length,
// and leaves the rest of its time to the in-process replay.
func planHTTP(seconds float64, traced bool) phasePlan {
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	p := phasePlan{warm: sec(math.Max(0.5, 0.05*seconds))}
	if traced {
		p.fixed = sec(0.15 * seconds)
		p.traced = p.fixed
		return p
	}
	p.fixed = sec(0.45 * seconds)
	p.ramp = sec(0.45 * seconds)
	return p
}

func newHTTPSpec(workload string, seed uint64, binDir string, seconds float64, traced bool) (*httpSpec, phasePlan, error) {
	sp := &httpSpec{name: workload}
	switch workload {
	case "predict-paper":
		sp.bin, sp.args = "relserve", []string{"-paper", "remote"}
		sp.rate = 2000
	case "fleet-scoped":
		sp.bin, sp.args = "relfleet", []string{"-paper", "remote", "-replicas", "3"}
		sp.rate = 500
	case "tenant-mix":
		sp.bin, sp.args = "relserve", []string{"-store", ":memory:"}
		sp.rate = 200
		sp.models = genModels(seed)
		sp.oracle = newTenantOracle(sp.models)
	default:
		return nil, phasePlan{}, fmt.Errorf("unknown HTTP workload %q", workload)
	}
	sp.bin = filepath.Join(binDir, sp.bin)
	plan := planHTTP(seconds, traced)
	n := plan.ops(sp.rate)
	if traced {
		// The replay continues along the same stream past the HTTP phases.
		n += int(replayOpsPerSecond * seconds)
	}
	if sp.tenant() {
		sp.ops = tenantStream(seed, sp.models, n)
		m := &sp.models[0]
		sp.setupOp = op{model: 0, pool: 0, params: m.Pool[0], method: "POST",
			path: "/predict?model=" + m.ref(), body: predictBodyService(tenantService, m.Pool[0])}
	} else {
		scoped := workload == "fleet-scoped"
		sp.ops = paperStream(workload, seed, n, scoped)
		sp.setupOp = paperStream(workload+"/setup", seed, 1, scoped)[0]
	}
	return sp, plan, nil
}

// setupOnce launches the server and waits for the first oracle-correct
// exact answer, publishing the tenant models first. It returns the
// running server and the elapsed time.
func (sp *httpSpec) setupOnce(acc *accounting) (*serverProc, time.Duration, error) {
	t0 := time.Now()
	p, err := launch(sp.bin, sp.args...)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(p.base)
	defer c.close()
	deadline := t0.Add(30 * time.Second)
	ready := func(o outcome) bool { return !o.err || o.status != 0 }
	if sp.tenant() {
		for {
			if _, err := c.get("/healthz"); err == nil {
				break
			}
			if p.exited() || time.Now().After(deadline) {
				p.stop()
				return nil, 0, fmt.Errorf("%s did not start listening", sp.bin)
			}
			time.Sleep(time.Millisecond)
		}
		for i := range sp.models {
			m := &sp.models[i]
			o := c.do("PUT", "/models/"+m.ref(), []byte(m.doc(0)))
			c := classify(o, true)
			acc.get("setup", "write").add(c)
			if c != causeNone {
				p.stop()
				return nil, 0, fmt.Errorf("publish %s: status %d", m.ref(), o.status)
			}
		}
	}
	for {
		o := c.do(sp.setupOp.method, sp.setupOp.path, sp.setupOp.body)
		if ready(o) {
			cs := classify(o, false)
			if cs == causeNone && !agrees(o.pfail, sp.want(&sp.setupOp, 0)) {
				cs = causeOracle
			}
			acc.get("setup", "read").add(cs)
			if cs != causeNone {
				p.stop()
				return nil, 0, fmt.Errorf("setup answer failed: %s (status %d kind %q)", causeNames[cs], o.status, o.kind)
			}
			return p, time.Since(t0), nil
		}
		if p.exited() || time.Now().After(deadline) {
			p.stop()
			return nil, 0, fmt.Errorf("%s did not answer", sp.bin)
		}
		time.Sleep(time.Millisecond)
	}
}

// want is the oracle value of a read at content version ver.
func (sp *httpSpec) want(o *op, ver int) float64 {
	if !sp.tenant() {
		return paperOracle(true, o.params)
	}
	v, err := sp.oracle.pfail(o.model, ver, o.pool)
	if err != nil {
		return math.NaN()
	}
	return v
}

// phaseSamples is one phase's samples.
type phaseSamples struct {
	name    string
	samples []sample
}

// httpRun is an HTTP run in progress: a client of the server and a
// cursor into the op stream.
type httpRun struct {
	sp     *httpSpec
	c      *client
	epoch  time.Time
	cursor int
	phases []phaseSamples
}

// runPhase drives the next d*rate ops at rate and records them under
// name. With a tracer, each round trip gets a client span.
func (r *httpRun) runPhase(name string, rate float64, d time.Duration, tr *tracer) []sample {
	n := min(int(d.Seconds()*rate), len(r.sp.ops)-r.cursor)
	first := r.cursor
	r.cursor += n
	ss := openLoop(r.epoch, time.Now(), rate, first, n, maxConns, func(i int) outcome {
		o := &r.sp.ops[i]
		if tr == nil {
			return r.c.do(o.method, o.path, o.body)
		}
		start := tr.now()
		out := r.c.do(o.method, o.path, o.body)
		tr.add(span{Name: "http.roundtrip", Start: start, End: tr.now(), Parent: -1, Req: int64(i)})
		return out
	})
	r.phases = append(r.phases, phaseSamples{name: name, samples: ss})
	return ss
}

// runClosed drives ops closed-loop from maxConns callers for d: each
// caller sends its next operation as soon as the previous one returns,
// so the due time is the send time.
func (r *httpRun) runClosed(name string, d time.Duration) []sample {
	first := r.cursor
	limit := len(r.sp.ops) - first
	until := time.Now().Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var ss []sample
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				send := time.Since(r.epoch)
				o := &r.sp.ops[first+i]
				out := r.c.do(o.method, o.path, o.body)
				s := sample{idx: first + i, due: send, send: send, end: time.Since(r.epoch), out: out}
				mu.Lock()
				ss = append(ss, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.cursor += int(min(next.Load(), int64(limit)))
	sort.Slice(ss, func(i, j int) bool { return ss[i].idx < ss[j].idx })
	r.phases = append(r.phases, phaseSamples{name: name, samples: ss})
	return ss
}

// check runs the oracle over every recorded sample, off the clock, and
// fills the accounting. It returns each sample's cause by phase name,
// in the order the phases ran.
func (r *httpRun) check(acc *accounting) map[string][]cause {
	causes := map[string][]cause{}
	var hist *writeHistory
	if r.sp.tenant() {
		hist = newWriteHistory(r.sp, r.phases)
	}
	for _, ph := range r.phases {
		cs := make([]cause, len(ph.samples))
		for i, s := range ph.samples {
			o := &r.sp.ops[s.idx]
			c := classify(s.out, o.write)
			if c == causeNone && !o.write {
				ok := false
				if hist != nil {
					for _, ver := range hist.candidates(o.model, s.send, s.end) {
						if agrees(s.out.pfail, r.sp.want(o, ver)) {
							ok = true
							break
						}
					}
				} else {
					ok = agrees(s.out.pfail, r.sp.want(o, 0))
				}
				if !ok {
					c = causeOracle
				}
			}
			kind := "read"
			if o.write {
				kind = "write"
			}
			acc.get(ph.name, kind).add(c)
			cs[i] = c
		}
		causes[ph.name] = append(causes[ph.name], cs...)
	}
	return causes
}

// writeHistory records, per model, when each content version's publish
// was in flight, so an unpinned read can be checked against every
// version that may have been latest while it ran.
type writeHistory struct {
	writes map[int][]writeRec
}

type writeRec struct {
	ver       int
	send, end time.Duration
}

func newWriteHistory(sp *httpSpec, phases []phaseSamples) *writeHistory {
	h := &writeHistory{writes: map[int][]writeRec{}}
	for _, ph := range phases {
		for _, s := range ph.samples {
			o := &sp.ops[s.idx]
			if o.write {
				// A failed publish may still have landed; keep it as a
				// candidate rather than guess.
				h.writes[o.model] = append(h.writes[o.model], writeRec{ver: o.ver, send: s.send, end: s.end})
			}
		}
	}
	return h
}

// candidates returns the content versions a read of model m that ran
// over [send, end] may legitimately have seen: every version whose
// publish was acknowledged before the read began and not superseded by a
// publish that started after it was acknowledged, plus every version
// whose publish overlapped the read. Version 0 was published at set-up.
func (h *writeHistory) candidates(m int, send, end time.Duration) []int {
	ws := h.writes[m]
	latestSendBefore := time.Duration(math.MinInt64)
	for _, w := range ws {
		if w.end < send && w.send > latestSendBefore {
			latestSendBefore = w.send
		}
	}
	var out []int
	if latestSendBefore == math.MinInt64 {
		out = append(out, 0)
	}
	for _, w := range ws {
		acked := w.end < send
		if (acked && w.end >= latestSendBefore) || (!acked && w.send < end) {
			out = append(out, w.ver)
		}
	}
	return out
}

func latenciesMS(ss []sample, causes []cause) []float64 {
	out := make([]float64, 0, len(ss))
	for i, s := range ss {
		if causes == nil || causes[i] == causeNone {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return out
}

// runHTTPUntraced measures one HTTP workload's end-to-end metrics.
func runHTTPUntraced(sp *httpSpec, plan phasePlan, rep *report) error {
	acc := &rep.acc
	var setups []float64
	var proc *serverProc
	for k := 0; k < setupLaunches; k++ {
		p, d, err := sp.setupOnce(acc)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if k < setupLaunches-1 {
			p.stop()
		} else {
			proc = p
		}
	}
	defer proc.stop()
	sd := summarize(setups)
	rep.set("setup_s", sd.P50, "s", sd.N, "median of launches")

	r := &httpRun{sp: sp, c: newClient(proc.base), epoch: time.Now()}
	defer r.c.close()
	r.runPhase("warmup", sp.rate, plan.warm, nil)
	// The fixed phase runs as cpuWindow windows with the server's CPU
	// read between them; cpu_us_per_op averages the middle half of the
	// windows, so a burst of interference from outside the run moves it
	// less.
	var fixed []sample
	var windows [][]sample
	var cpuPerOp []float64
	for i := 0; i < max(1, int(plan.fixed/cpuWindow)); i++ {
		cpu0, err := procCPU(proc.pid())
		if err != nil {
			return err
		}
		ss := r.runPhase("fixed", sp.rate, min(cpuWindow, plan.fixed), nil)
		cpu1, err := procCPU(proc.pid())
		if err != nil {
			return err
		}
		fixed = append(fixed, ss...)
		cpuPerOp = append(cpuPerOp, float64(cpu1-cpu0)/1e3/float64(len(ss)))
		windows = append(windows, ss)
	}
	// Peak RSS is read before the ramp: the ramp's traffic follows the
	// capacity it finds, so a later reading would vary with that.
	hwm, err := procHWM(proc.pid())
	if err != nil {
		return err
	}
	maxRPS, achieved, err := r.ramp(plan.ramp, rep)
	if err != nil {
		return err
	}

	causes := r.check(acc)
	lat := summarize(latenciesMS(fixed, causes["fixed"]))
	rep.setDist("latency", lat)
	// The reported median is the interquartile mean of the windows'
	// medians, for the same reason as the CPU figure.
	var p50s []float64
	for _, w := range windows {
		p50s = append(p50s, summarize(latenciesMS(w, nil)).P50)
	}
	rep.set("latency_p50_ms", interquartileMean(p50s), "ms", lat.N,
		fmt.Sprintf("interquartile mean of the medians of %d windows of %v; whole-phase median %.4f ms", len(p50s), cpuWindow, lat.P50))
	rep.note("fixed phase latency from due time: " + lat.String())
	rep.lag = summarize(lagsMS(fixed))
	rep.checkLag(lat.P99.Value)
	rep.set("cpu_us_per_op", interquartileMean(cpuPerOp), "us", lat.N,
		fmt.Sprintf("interquartile mean of %d windows of %v of server /proc/<pid>/stat utime+stime per op", len(cpuPerOp), cpuWindow))
	rep.set("peak_rss_mb", float64(hwm)/(1<<20), "MiB", 1, "server VmHWM after the fixed phase")

	rep.set("max_rps", maxRPS, "req/s", 1, fmt.Sprintf("highest ramp rate with p99 <= %v and no growing backlog", latencyLimit))
	rep.set("points_per_s", achieved, "points/s", 1, "median throughput of the staircase steps max_rps is taken over (one point per request)")

	if sp.tenant() {
		var w []float64
		for i, s := range fixed {
			if sp.ops[s.idx].write && causes["fixed"][i] == causeNone {
				w = append(w, float64(s.latency())/1e6)
			}
		}
		wd := summarize(w)
		rep.note(fmt.Sprintf("write_p50_ms = %.4f ms (n=%d); write %s = %.4f ms (beyond=%d); write_p99_ms = %.4f ms (beyond=%d, supported=%v)",
			wd.P50, wd.N, wd.Tail, wd.Tail.Value, wd.Tail.Beyond, wd.P99.Value, wd.P99.Beyond, wd.P99.OK))
	}
	return nil
}

// ramp runs the staircase. A step passes when its p99 from due time
// meets latencyLimit, its backlog is not growing, and at most
// maxFailedRatio of its operations failed (the oracle runs after the run;
// a mismatch fails the whole run). It returns max_rps and the median
// throughput the same steps achieved.
func (r *httpRun) ramp(budget time.Duration, rep *report) (maxRPS, achieved float64, err error) {
	deadline := time.Now().Add(budget)
	step := func(rate float64, d time.Duration) (bool, float64) {
		ss := r.runPhase("ramp", rate, max(d, time.Duration(1100/rate*float64(time.Second))), nil)
		lat := summarize(latenciesMS(ss, nil))
		failed := 0
		for _, s := range ss {
			if classify(s.out, r.sp.ops[s.idx].write) != causeNone {
				failed++
			}
		}
		first, last := ss[0], ss[len(ss)-1]
		// The backlog is the median send lateness over the step's last
		// quarter: a stall delays a few sends, a rate above capacity
		// delays them all and more so over time.
		var late []float64
		for _, s := range ss[len(ss)*3/4:] {
			late = append(late, float64(s.send-s.due))
		}
		backlog := time.Duration(summarize(late).P50)
		thru := float64(len(ss)) / (last.end - first.due).Seconds()
		pass := lat.P99.OK && lat.P99.Value <= float64(latencyLimit)/1e6 &&
			backlog <= rampBacklog && ratio(float64(failed), float64(len(ss))) <= maxFailedRatio
		rep.note(fmt.Sprintf("ramp %7.0f req/s: n=%d p50=%.3fms p99=%.3fms (beyond=%d) backlog=%.3fms failed=%d achieved=%.0f/s pass=%v",
			rate, lat.N, lat.P50, lat.P99.Value, lat.P99.Beyond, float64(backlog)/1e6, failed, thru, pass))
		return pass, thru
	}
	probe := r.runClosed("probe", rampProbe)
	capacity := float64(len(probe)) / rampProbe.Seconds()
	rep.note(fmt.Sprintf("closed-loop probe: %.0f req/s with %d connections", capacity, maxConns))
	rate, factor := max(r.sp.rate, rampProbeStart*capacity), rampCoarse
	var rates, thrus []float64
	prev, reversed := false, false
	for k := 0; time.Now().Before(deadline) && r.cursor < len(r.sp.ops); k++ {
		pass, thru := step(rate, rampStepMin)
		if k > 0 && pass != prev && !reversed {
			reversed, factor = true, rampFine
		}
		prev = pass
		if reversed {
			rates = append(rates, rate)
			thrus = append(thrus, thru)
		}
		if pass {
			maxRPS, achieved = rate, thru
			rate *= factor
		} else if rate /= factor; rate < r.sp.rate/2 {
			return 0, 0, errors.New("no ramp step met the limits down to half the fixed rate on this host")
		}
	}
	switch {
	case maxRPS == 0:
		return 0, 0, errors.New("no ramp step passed in the ramp's time")
	case !reversed:
		rep.note("ramp ran out of time before a step failed: max_rps is a lower bound")
		return maxRPS, achieved, nil
	}
	return summarize(rates).P50, summarize(thrus).P50, nil
}

func lagsMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lag) / 1e6
	}
	return out
}

// scrape fetches a JSON endpoint of the running server.
func scrape(c *client, path string) map[string]any {
	b, err := c.get(path)
	if err != nil {
		return nil
	}
	var m map[string]any
	if json.Unmarshal(b, &m) != nil {
		return nil
	}
	return m
}

// compactJSON renders a scraped document on one line (map keys marshal
// sorted).
func compactJSON(m map[string]any) string {
	b, _ := json.Marshal(m)
	return string(b)
}
