package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// endToEnd and perLayer name, in order, the metrics an untraced and a
// traced run report. They match BENCHMARK.json (a test checks).
var endToEnd = []string{
	"setup_s", "latency_p50_ms", "max_rps", "points_per_s", "cpu_us_per_op", "peak_rss_mb",
}

// reportedOnly are end-to-end metrics printed in the text of an untraced
// run but left out of the result line and BENCHMARK.json: latency_p99_ms
// varies between runs far beyond any regression bound on a host that
// descheduled the guest for 2-12 ms twice a second (see NOTES.md).
var reportedOnly = []string{"latency_p99_ms"}

var perLayer = []string{
	"driver.send_lag_p99_ms", "driver.trace_overhead_ratio",
	"http.roundtrip_p50_us", "http.self_p50_us",
	"server.serve_self_p50_us", "server.serve_self_p99_us", "server.allocs_per_op", "server.shed",
	"server.hedges_launched", "server.hedge_win_ratio", "server.limit",
	"core.eval_p50_ns", "core.batch_ns_per_point", "core.allocs_per_point", "core.parametric_share",
	"core.memo_hit_ratio", "core.compile_p50_ms", "core.parametric_fallbacks", "core.wall_share",
	"estimate.observe_p50_ns", "estimate.keys",
	"adl.parse_p50_us", "store.publish_p50_us", "store.get_p50_us", "store.cache_load_hit_p50_us",
	"store.cache_load_miss_p50_us", "store.cache_hit_ratio", "store.cache_evictions",
	"cluster.serve_self_p50_us", "cluster.forward_ratio", "cluster.gossip_round_p50_ms",
	"cluster.rumors_skipped_ratio", "cluster.estimates_merged",
}

// report collects a run's metrics, notes and accounting.
type report struct {
	metrics map[string]metric
	notes   []string
	acc     accounting
	lag     dist // generator lateness in the timed phase, ms
	invalid []string
	spans   []span // traced runs: written out after the run
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, n int, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit, N: n, Note: note}
}

func (r *report) note(s string) { r.notes = append(r.notes, s) }

// setDist reports a latency distribution in ms as <prefix>_p50_ms and
// <prefix>_p99_ms; a p99 without enough samples beyond it marks the run
// invalid.
func (r *report) setDist(prefix string, d dist) {
	r.set(prefix+"_p50_ms", d.P50, "ms", d.N, "")
	r.set(prefix+"_p99_ms", d.P99.Value, "ms", d.N, fmt.Sprintf("%d samples beyond", d.P99.Beyond))
	if !d.P99.OK {
		r.invalid = append(r.invalid, fmt.Sprintf("%s p99 has only %d samples beyond it", prefix, d.P99.Beyond))
	}
}

// checkLag flags the run invalid when the generator, not the server,
// was late: its own send-lag p99 is more than half the latency p99 it
// measured, so the tail it reports is largely its own.
func (r *report) checkLag(latencyP99MS float64) {
	if r.lag.N > 0 && r.lag.P99.Value > latencyP99MS/2 {
		r.invalid = append(r.invalid, fmt.Sprintf("generator late: send lag p99 %.3f ms > half the latency p99 %.3f ms", r.lag.P99.Value, latencyP99MS))
	}
}

// hostLine describes the machine a run measured.
func hostLine() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s kernel=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
}

func printMetric(w io.Writer, name string, m metric) {
	line := fmt.Sprintf("  %-30s %14.6g %-9s n=%d", name, m.Value, m.Unit, m.N)
	if m.Note != "" {
		line += "  (" + m.Note + ")"
	}
	fmt.Fprintln(w, line)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints the human-readable report and the result line, and
// returns the result.
func (r *report) write(w io.Writer, workload string, seed uint64, traced bool) (result, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	fmt.Fprintf(w, "workload=%s seed=%d trace=%v\n%s\n", workload, seed, traced, hostLine())
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	res := result{Metrics: map[string]metric{}}
	var missing []string
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = m
		printMetric(w, name, m)
	}
	if !traced {
		for _, name := range reportedOnly {
			if m, ok := r.metrics[name]; ok {
				printMetric(w, name, m)
			}
		}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	for _, t := range r.acc.tallies {
		fmt.Fprintln(w, "  ops "+t.String())
	}
	attempted, failed, oracle := r.acc.totals()
	fmt.Fprintf(w, "  failed_ratio = %.6f (%d of %d)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	if r.lag.N > 0 {
		fmt.Fprintf(w, "  generator send lag: p50=%.4f ms p99=%.4f ms (n=%d)\n", r.lag.P50, r.lag.P99.Value, r.lag.N)
	}
	if len(r.invalid) > 0 {
		fmt.Fprintf(w, "  run validity: INVALID (%s)\n", strings.Join(r.invalid, "; "))
	} else {
		fmt.Fprintln(w, "  run validity: valid")
	}
	res.Correct = oracle == 0
	res.Attempted, res.Failed = attempted, failed
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintln(w, string(line))
	return res, nil
}
