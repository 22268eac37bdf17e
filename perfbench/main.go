// Command perfbench is the repository benchmark. It drives scenario.Run on
// one named workload, checks every run for correctness, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every repetition runs in a fresh child process of this binary, so peak
// memory and GC counters are per run. Run it from the repository root:
//
//	bash perfbench/run.sh --workload crash-10x1000 --seed 1 --seconds 30 --trace 0
//
// NOTES.md explains the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		wlName   = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 25, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled and traced runs")
		outDir   = flag.String("out", ".bench_build/runs", "directory for CPU profiles and spans")
		child    = flag.String("child", "", "internal: run one repetition in this process (setup|run|profile|traced|retained)")
		profPath = flag.String("profile-out", "", "internal: CPU profile file for -child profile")
	)
	flag.Parse()
	w, err := lookupWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		runChild(*child, w, *seed, *profPath)
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{
		w:       w,
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		outDir:  *outDir,
		exe:     exe,
		start:   time.Now(),
		traceOn: *trace == 1,
	}
	res := b.run()
	if err := b.writeSpans(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
