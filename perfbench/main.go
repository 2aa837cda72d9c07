// Command perfbench is the repository's benchmark. One process runs one
// named workload (or all of them, one after another) against the ERMIA
// engine built from this source tree, checks the outputs, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

var workloads = []workload{
	{"tpcc-hybrid", setupTPCCHybrid},
	{"kv-wire", setupKVWire},
	{"ch-htap", setupCHHTAP},
}

// episodes is how many episodes an untraced run is cut into. Each episode
// sets the workload up afresh, warms it up, measures its share of the run
// and checks its outputs; the run reports medians over the episodes. The
// TPC-C workloads are not stationary: deleted NEW-ORDER keys stay in the
// index, so Delivery's scan for the oldest undelivered order grows with
// every Delivery done (1.5 ms in a tpcc-hybrid run's first two seconds,
// 9.4 ms eighteen seconds later), and a run's rate fell for as long as it
// ran. A fresh database per episode makes every episode cover the same
// stretch of that growth, however fast the machine is.
const episodes = 5

// warmup runs the workload unmeasured before timing starts.
const warmup = time.Second / 2

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outdir := flag.String("outdir", ".bench_build", "directory for the report and the spans")
	flag.Parse()

	var list []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			list = append(list, w)
		}
	}
	if len(list) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s, all), --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	final := result{Correct: true, Metrics: metrics{}}
	for _, w := range list {
		cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, outdir: *outdir}
		r, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		final.Correct = final.Correct && r.Correct
		for k, v := range r.Metrics {
			if len(list) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the contract's last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	outdir  string
	small   bool // tests: small data
}

// report is the full record of one workload run, written beside the spans.
type report struct {
	Workload   string    `json:"workload"`
	Env        envInfo   `json:"env"`
	SetupS     []float64 `json:"setup_s_runs,omitempty"`
	Percentile []pct     `json:"percentiles,omitempty"`
	Violations []string  `json:"violations,omitempty"`
	Errors     []string  `json:"errors,omitempty"`
	Metrics    metrics   `json:"metrics"`
}

// runOut is what one measured phase produced.
type runOut struct {
	t      *tally
	m      metrics
	bad    []string
	setupS []float64
	pcts   []pct
	spans  []span
}

func runWorkload(w workload, cfg runConfig) (result, error) {
	measure := time.Duration(cfg.seconds * float64(time.Second))
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, cfg.seed, cfg.seconds, b2i(cfg.traced))
	var out *runOut
	var err error
	if !cfg.traced {
		out, err = untracedRun(w, cfg, measure, episodes)
	} else {
		out, err = tracedRun(w, cfg, measure)
	}
	if err != nil {
		return result{}, err
	}
	t := out.t
	bad := out.bad
	if t.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d transactions failed for good: %s", t.failed, strings.Join(t.errs, "; ")))
	}
	for _, p := range out.pcts {
		fmt.Printf("# %s p%g = %.4f ms: median over %d episodes of n=%d samples, each with >= %d beyond\n",
			p.Series, p.Q*100, p.MS, p.Episodes, p.N, p.Beyond)
		if p.Beyond < minBeyond {
			bad = append(bad, fmt.Sprintf("%s p%g has %d samples beyond it, fewer than %d", p.Series, p.Q*100, p.Beyond, minBeyond))
		}
	}
	rep := report{Workload: w.name, Env: environment(cfg), SetupS: out.setupS,
		Percentile: out.pcts, Violations: bad, Errors: t.errs, Metrics: out.m}
	printMetrics(out.m)
	for _, v := range bad {
		fmt.Println("# VIOLATION:", v)
	}
	env, _ := json.Marshal(rep.Env)
	fmt.Printf("# env %s\n", env)
	base := filepath.Join(cfg.outdir, fmt.Sprintf("perfbench-%s-seed%d-trace%d", w.name, cfg.seed, b2i(cfg.traced)))
	if blob, err := json.MarshalIndent(rep, "", "  "); err == nil && os.WriteFile(base+".json", append(blob, '\n'), 0o644) == nil {
		fmt.Printf("# report %s.json\n", base)
	}
	if cfg.traced {
		if err := writeSpans(base+".spans.tsv.gz", out.spans); err != nil {
			return result{}, err
		}
		fmt.Printf("# spans %s.spans.tsv.gz\n", base)
	}
	return result{Correct: len(bad) == 0, Attempted: t.ops, Failed: t.failed, Metrics: out.m}, nil
}

// untracedRun measures d in n episodes, each on a fresh setup: it sets
// the workload up (timing it), warms it up, measures d/n, checks the
// outputs and closes it.
func untracedRun(w workload, cfg runConfig, d time.Duration, n int) (*runOut, error) {
	out := &runOut{t: &tally{}}
	o := opts{seed: cfg.seed, small: cfg.small}
	var memPerByte float64
	var eps []*tally
	for i := 0; i < n; i++ {
		isolate()
		heap0 := heapLive()
		start := time.Now()
		inst, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		if i == 0 {
			// The first setup runs in a process nothing else has used yet,
			// so the heap it adds is its own.
			heap, err := engineHeap(inst, heap0)
			if err != nil {
				return nil, fmt.Errorf("measuring heap: %w", err)
			}
			memPerByte = ratio(float64(heap), float64(inst.userBytes()))
		}
		// Episodes draw different transaction streams from the seed.
		inst.drive(warmup, uint64(2*i), cfg.seed)
		t := inst.drive(d/time.Duration(n), uint64(2*i+1), cfg.seed)
		eps = append(eps, t)
		out.t.merge(t)
		out.bad = append(out.bad, inst.check()...)
		out.bad = append(out.bad, inst.close()...)
	}
	out.m, out.pcts = endToEndMetrics(eps, out.t, out.setupS, memPerByte)
	return out, nil
}

// tracedRun measures half of d untraced and then, on a fresh setup with
// every decorator and the engine's profile on, half traced. Per-layer
// metrics come from the traced half; the difference in commit rate is the
// tracing overhead.
func tracedRun(w workload, cfg runConfig, d time.Duration) (*runOut, error) {
	plain, err := untracedRun(w, cfg, d/2, 1)
	if err != nil {
		return nil, err
	}
	isolate()
	tr := newTracer(maxSpans)
	inst, err := w.setup(opts{seed: cfg.seed, small: cfg.small, tr: tr})
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	inst.drive(warmup, 0, cfg.seed)
	tr.reset()
	before, p0 := takeLayers(inst.db(), inst.layers()), takeProc()
	t := inst.drive(d/2, 1, cfg.seed)
	after, p1 := takeLayers(inst.db(), inst.layers()), takeProc()
	spans := tr.all()
	in := layerInput{t: t, before: before, after: after, p0: p0, p1: p1, spans: spans,
		untracedTPS: ratio(float64(plain.t.commits), plain.t.elapsed.Seconds())}
	out := &runOut{m: layerMetrics(in), spans: spans}
	out.bad = append(plain.bad, inst.check()...)
	out.bad = append(out.bad, inst.close()...)
	if n := tr.dropped.Load(); n > 0 {
		fmt.Printf("# tracer kept %d spans and dropped %d\n", len(spans), n)
	}
	plain.t.merge(t)
	out.t = plain.t
	return out, nil
}

// maxSpans bounds the spans a traced run keeps in memory (about 48 B each).
const maxSpans = 2 << 20

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
