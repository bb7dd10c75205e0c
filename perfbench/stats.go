package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the percentile is reported: a p99 of 200 samples is really the
// second-largest value, not a tail estimate.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// and the number of samples strictly beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank > n-1 {
		rank = n - 1
	}
	return sorted[rank], n - 1 - rank
}

// tail is one reported percentile with the evidence behind it.
type tail struct {
	P      float64 // the quantile, e.g. 0.99
	Value  float64
	Beyond int  // samples strictly beyond Value
	OK     bool // Beyond >= minBeyond
}

// dist summarizes one latency (or other) sample set.
type dist struct {
	N      int
	P50    float64
	P99    tail
	Tail   tail // highest of p99.9/p99/p90/p50 with >= minBeyond samples beyond
	sorted []float64
}

// summarize sorts a copy of xs and derives its median, its p99 and the
// highest percentile the sample supports.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), sorted: s}
	d.P50, _ = percentile(s, 0.5)
	v, b := percentile(s, 0.99)
	d.P99 = tail{P: 0.99, Value: v, Beyond: b, OK: b >= minBeyond}
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		v, b := percentile(s, p)
		if b >= minBeyond {
			d.Tail = tail{P: p, Value: v, Beyond: b, OK: true}
			break
		}
	}
	return d
}

// String lists the distribution's quantiles in ms-agnostic units.
func (d dist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", d.N)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		v, _ := percentile(d.sorted, min(p, 1-1e-12))
		fmt.Fprintf(&b, " %s=%.4g", tail{P: p}, v)
	}
	return b.String()
}

func (t tail) String() string {
	return fmt.Sprintf("p%s", strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", t.P*100), "0"), "."))
}

// interquartileMean is the mean of the middle half of xs: robust to
// outliers like a median, but not stuck on one quantized sample.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
	Note  string  `json:"-"`
}

// ratio returns num/den, or 0 when den is 0 (no attempts, nothing wasted).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cause classifies why an operation failed.
type cause int

const (
	causeNone      cause = iota
	causeShed            // 503 from admission control
	causeDegraded        // 2xx but a stale/bounded/unavailable kind
	causeStatus          // any other non-2xx
	causeTransport       // connection or protocol error, or not sent in time
	causeOracle          // exact answer that disagrees with the oracle
	numCauses
)

var causeNames = [numCauses]string{"ok", "shed_503", "degraded_kind", "other_non2xx", "transport", "oracle_mismatch"}

// tally counts attempted, succeeded and failed operations of one phase
// and kind (read or write), with failures split by cause.
type tally struct {
	Phase, Kind string
	Attempted   int
	Failed      [numCauses]int
}

func (t *tally) add(c cause) {
	t.Attempted++
	if c != causeNone {
		t.Failed[c]++
	}
}

func (t tally) failed() int {
	n := 0
	for c := causeShed; c < numCauses; c++ {
		n += t.Failed[c]
	}
	return n
}

func (t tally) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %-5s attempted=%d succeeded=%d failed=%d", t.Phase, t.Kind, t.Attempted, t.Attempted-t.failed(), t.failed())
	for c := causeShed; c < numCauses; c++ {
		fmt.Fprintf(&b, " %s=%d", causeNames[c], t.Failed[c])
	}
	return b.String()
}

// accounting holds every tally of a run in a stable order.
type accounting struct {
	tallies []*tally
}

func (a *accounting) get(phase, kind string) *tally {
	for _, t := range a.tallies {
		if t.Phase == phase && t.Kind == kind {
			return t
		}
	}
	t := &tally{Phase: phase, Kind: kind}
	a.tallies = append(a.tallies, t)
	return t
}

func (a *accounting) totals() (attempted, failed, oracle int) {
	for _, t := range a.tallies {
		attempted += t.Attempted
		failed += t.failed()
		oracle += t.Failed[causeOracle]
	}
	return
}
