// Command servebench is coolopt's serving benchmark. It starts the
// pod-only serving stack in-process — seeded synthetic profile →
// core.NewPodSnapshot → engine.FromPodSnapshot → roomapi.NewServer →
// http.Server on a 127.0.0.1 listener — and drives /v1/plan over
// loopback HTTP with closed-loop clients, each holding one keep-alive
// connection and fully decoding and checking every answer.
//
// Workloads (-workload): hot (Zipf-popular demand levels with measured
// jitter, served from the plan cache), failover (a fresh avoid list per
// request, so every request is a degraded re-plan in core), and drift
// (the hot mix while a re-profiler installs a drift batch every 250 ms).
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with -trace 1 it carries the per-layer metrics
// of a traced run, and the spans are written under -spans. Run it from
// the repository root through servebench/run.sh, which builds it:
//
//	bash servebench/run.sh --workload hot --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	// The room size, one closed-loop client per CPU, and the set-up
	// repetitions behind setup_s's median are fixed by the benchmark.
	cfg := Config{N: 4096, Clients: runtime.NumCPU(), SetupReps: 7}
	flag.StringVar(&cfg.Workload, "workload", "hot", "workload: hot, failover or drift")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.Seconds, "seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.SpanDir, "spans", ".bench_build/servebench", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.Trace = *trace != 0
	if cfg.Seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: bad flags")
		os.Exit(2)
	}

	res, err := Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	for _, line := range res.Report {
		fmt.Println(line)
	}
	if !cfg.Trace {
		for _, name := range sortedKeys(res.Metrics) {
			fmt.Printf("%s = %.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
