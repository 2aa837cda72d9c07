// Command ermia-bench regenerates every table and figure of the ERMIA
// paper's evaluation (§4) on this reproduction, plus the experiments on its
// own subsystems. Each experiment prints an aligned text table whose rows
// correspond to the paper's series or the experiment's grid.
//
// Usage:
//
//	ermia-bench -experiment fig5 -threads 8 -duration 5s
//	ermia-bench -experiment all
//	ermia-bench -experiment fig1 -full        # paper-scale parameters
//	ermia-bench -experiment server -json BENCH_server.json
//
// Paper experiments: fig1 fig2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// table1. Subsystem experiments, each of which can also write a JSON
// report with -json: server (network group commit), repl (log-shipping
// lag), ckpt (checkpoint recovery and replica seeding), chaos (nemesis
// availability), query (HTAP writer interference), shard (sharded TPC-C).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ermia/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run (fig1..fig12, table1, server, repl, ckpt, chaos, query, shard, all)")
		threads    = flag.Int("threads", 0, "worker goroutines (default: 4, or 24 with -full)")
		duration   = flag.Duration("duration", 0, "measurement time per point (default 2s, 30s with -full)")
		items      = flag.Int("items", 0, "TPC-C ITEM cardinality (default 10000, 100000 with -full)")
		customers  = flag.Int("customers", 0, "TPC-E customers (default 300, 5000 with -full)")
		microRows  = flag.Int("micro-rows", 0, "microbenchmark rows (default 200000, 2400000 with -full)")
		full       = flag.Bool("full", false, "approximate the paper's scale (24 threads, 30s, full tables)")
		jsonPath   = flag.String("json", "", "write the experiment's machine-readable report here (server, repl, ckpt, chaos, query, shard)")
		list       = flag.Bool("list", false, "list experiments in the order -experiment all runs them, and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Println(e.Name)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "ermia-bench: -experiment required (use -list to enumerate)")
		os.Exit(2)
	}

	params := bench.Params{
		Threads:   *threads,
		Duration:  *duration,
		Items:     *items,
		Customers: *customers,
		MicroRows: *microRows,
		Full:      *full,
		Out:       os.Stdout,
		JSONPath:  *jsonPath,
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		if err := e.Run(params); err != nil {
			fmt.Fprintf(os.Stderr, "ermia-bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("# %s done in %v\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, e := range bench.Experiments {
			run(e)
		}
		return
	}
	e, ok := bench.LookupExperiment(*experiment)
	if !ok {
		fmt.Fprintf(os.Stderr, "ermia-bench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	run(e)
}
