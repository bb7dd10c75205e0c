// Command perfbench is socrel's benchmark. It launches the real serving
// binaries (cmd/relserve, cmd/relfleet) on loopback and drives them from
// this one process, or drives the library directly, checks every answer
// against an oracle, and prints every metric with its unit and sample
// count. The last line of standard output is one JSON result object.
//
//	perfbench -bin DIR -workload predict-paper|whatif-sweep|tenant-mix|fleet-scoped \
//	          -seed N -seconds S -trace 0|1
//
// -trace 0 reports the end-to-end metrics; -trace 1 makes a separate
// traced run that reports the per-layer metrics. perfbench/run.sh builds
// the binaries and runs this command from the root of a checkout. See
// perfbench/NOTES.md for why each workload exists.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "predict-paper, whatif-sweep, tenant-mix or fleet-scoped")
	seed := fs.Uint64("seed", 1, "workload seed: every generated input is a function of (workload, seed)")
	seconds := fs.Int("seconds", 20, "measuring time of the run, excluding set-up")
	trace := fs.Int("trace", 0, "1 makes a traced run reporting per-layer metrics")
	bin := fs.String("bin", ".bench_build/socrel/bin", "directory holding the relserve and relfleet binaries")
	spanDir := fs.String("spans", ".bench_build/socrel/spans", "directory traced runs write their spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	rep := newReport()
	sec := float64(*seconds)
	var err error
	switch *workload {
	case "whatif-sweep":
		err = runSweep(*seed, sec, traced, *bin, rep)
	case "predict-paper", "tenant-mix", "fleet-scoped":
		var sp *httpSpec
		var plan phasePlan
		sp, plan, err = newHTTPSpec(*workload, *seed, *bin, sec, traced)
		if err == nil && traced {
			err = runHTTPTraced(sp, plan, sec, rep)
		} else if err == nil {
			err = runHTTPUntraced(sp, plan, rep)
		}
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		for _, n := range rep.notes {
			fmt.Fprintln(os.Stderr, "  "+n)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if traced && rep.spans != nil {
		if err := os.MkdirAll(*spanDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-%d-%d.tsv", *workload, *seed, time.Now().Unix()))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		rep.note(fmt.Sprintf("spans: %d written to %s", len(rep.spans), path))
	}
	res, err := rep.write(os.Stdout, *workload, *seed, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: oracle mismatch")
		return 3
	}
	return 0
}
