package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..n
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{1000, 0.99, 990, 10},
		{1000, 0.5, 500, 500},
		{999, 0.99, 990, 9},
		{100, 0.99, 99, 1},
		{1, 0.99, 1, 0},
		{10000, 0.999, 9990, 10},
	} {
		v, beyond := percentile(seq(tc.n), tc.p)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("n=%d p=%v: got %v (beyond %d), want %v (beyond %d)", tc.n, tc.p, v, beyond, tc.want, tc.wantBeyond)
		}
	}
}

// The p99 is reported only with at least ten samples beyond it; the
// summary picks the highest percentile the sample supports and keeps the
// sample count.
func TestSummarizeTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p99OK    bool
		tailP    float64
		tailBeyd int
	}{
		{999, false, 0.9, 99},
		{1000, true, 0.99, 10},
		{9999, true, 0.99, 99},
		{10000, true, 0.999, 10},
		{25, false, 0.5, 12},
	} {
		xs := seq(tc.n)
		// Shuffle-ish order: summarize must sort.
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		d := summarize(xs)
		if d.N != tc.n {
			t.Errorf("n=%d: sample count %d", tc.n, d.N)
		}
		if d.P99.OK != tc.p99OK {
			t.Errorf("n=%d: p99 OK=%v, want %v (beyond %d)", tc.n, d.P99.OK, tc.p99OK, d.P99.Beyond)
		}
		if d.Tail.P != tc.tailP || d.Tail.Beyond != tc.tailBeyd {
			t.Errorf("n=%d: tail p%v beyond %d, want p%v beyond %d", tc.n, d.Tail.P, d.Tail.Beyond, tc.tailP, tc.tailBeyd)
		}
	}
	r := newReport()
	r.setDist("latency", summarize(seq(500)))
	if len(r.invalid) != 1 {
		t.Fatalf("a p99 over 500 samples should mark the run invalid, got %v", r.invalid)
	}
	if m := r.metrics["latency_p99_ms"]; m.N != 500 {
		t.Errorf("p99 sample count %d, want 500", m.N)
	}
}

func TestInterquartileMean(t *testing.T) {
	if got := interquartileMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("interquartile mean %v, want 3.5 (outliers dropped)", got)
	}
	if got := interquartileMean([]float64{7}); got != 7 {
		t.Errorf("interquartile mean of one sample %v, want 7", got)
	}
}

func TestSelfTimeUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested", []span{{Start: 10, End: 80}, {Start: 20, End: 30}}, 30},
		{"unsorted and touching", []span{{Start: 50, End: 70}, {Start: 20, End: 50}}, 50},
		{"clipped to parent", []span{{Start: -20, End: 10}, {Start: 90, End: 130}}, 80},
		{"outside parent", []span{{Start: 100, End: 120}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}

	// selfTimes finds children through parent indices.
	spans := []span{
		{Name: "server.serve", Start: 0, End: 100, Parent: -1},
		{Name: "core.eval", Start: 10, End: 40, Parent: 0},
		{Name: "estimate.observe", Start: 30, End: 60, Parent: 0},
		{Name: "server.serve", Start: 200, End: 210, Parent: -1},
	}
	got := selfTimes(spans, "server.serve")
	if len(got) != 2 || got[0] != 50 || got[1] != 10 {
		t.Errorf("selfTimes = %v, want [50 10]", got)
	}
}

// Latency is measured from the due time: when one send stalls, the
// operations due during the stall are sent late and their latency
// includes the wait, while the generator's own lateness stays small.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const rate = 1000 // one op per ms
	const stall = 50 * time.Millisecond
	epoch := time.Now()
	ss := openLoop(epoch, epoch.Add(5*time.Millisecond), rate, 0, 40, 1, func(i int) outcome {
		if i == 0 {
			time.Sleep(stall)
		}
		return outcome{status: 200}
	})
	if got := ss[0].latency(); got < stall {
		t.Fatalf("stalled op latency %v < stall %v", got, stall)
	}
	for i := 1; i < 40; i++ {
		// Op i was due i ms after op 0 but could only be sent once the
		// stall ended.
		if want := stall - time.Duration(i)*time.Millisecond; ss[i].latency() < want {
			t.Errorf("op %d: latency %v, want >= %v (measured from due time)", i, ss[i].latency(), want)
		}
		if ss[i].send < ss[i].due {
			t.Errorf("op %d sent before it was due", i)
		}
	}
	// The generator was busy, not late: lag counts from when the worker
	// became free, so it stays far below the stall.
	if lag := summarize(lagsMS(ss)); lag.P50 > 5 {
		t.Errorf("generator lag p50 %.3f ms under a server stall; want small", lag.P50)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses; utime=250 stime=50 ticks.
	stat := "4242 (rel serve (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 7 0 123456 1000000 3000 18446744073709551615"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu %v, want %v", got, want)
	}
	if _, err := parseProcStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("truncated stat parsed")
	}
	if _, err := parseProcStatCPU("no command field"); err == nil {
		t.Error("stat without a command field parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\trelserve\nVmPeak:\t  800000 kB\nVmHWM:\t   14336 kB\nVmRSS:\t   12000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(14336 * 1024); got != want {
		t.Errorf("VmHWM %d, want %d", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

// The live /proc files parse, for this process.
func TestProcSelf(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if hwm, err := procHWM(os.Getpid()); err != nil || hwm <= 0 {
		t.Fatalf("VmHWM %d, %v", hwm, err)
	}
}

// BENCHMARK.json names exactly the metrics the runs report.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	check := func(what string, got, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %v, the report %v", what, got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, report %q", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", names(cfg.EndToEnd), endToEnd)
	check("per_layer", names(cfg.PerLayer), perLayer)
	// fleet-scoped stays runnable but is not a gated workload (NOTES.md).
	check("workloads", names(cfg.Workloads), []string{"predict-paper", "whatif-sweep", "tenant-mix"})
}
