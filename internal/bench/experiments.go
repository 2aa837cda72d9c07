package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/micro"
	"ermia/internal/silo"
	"ermia/internal/tpcc"
	"ermia/internal/tpce"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// Engine names used in every experiment's output, matching the paper's
// legends.
const (
	EngERMIASI  = "ERMIA-SI"
	EngERMIASSN = "ERMIA-SSN"
	EngSilo     = "Silo-OCC"
)

// AllEngines is the standard comparison set.
var AllEngines = []string{EngSilo, EngERMIASI, EngERMIASSN}

// Params scales an experiment run. Zero values select quick-mode defaults
// suited to small machines; Full approximates the paper's scale.
type Params struct {
	Threads   int           // worker goroutines (the paper's x axis caps at 24)
	Duration  time.Duration // per measurement point
	Items     int           // TPC-C ITEM cardinality
	MicroRows int           // microbenchmark table size
	Customers int           // TPC-E customers
	Full      bool          // use paper-scale parameters
	Out       io.Writer
	// JSONPath, when non-empty, is where the experiments that produce a
	// machine-readable report (server, repl, ckpt, chaos, query, shard)
	// write it; the paper experiments ignore it.
	JSONPath string
}

func (p *Params) setDefaults() {
	if p.Threads == 0 {
		if p.Full {
			p.Threads = 24
		} else {
			p.Threads = 4
		}
	}
	if p.Duration == 0 {
		if p.Full {
			p.Duration = 30 * time.Second
		} else {
			p.Duration = 2 * time.Second
		}
	}
	if p.Items == 0 {
		if p.Full {
			p.Items = 100000
		} else {
			// Items >= NumSuppliers keeps the Q2* supplier→stock join
			// meaningful; the customer count is capped separately so the
			// quick-mode load stays fast.
			p.Items = 10000
		}
	}
	if p.MicroRows == 0 {
		if p.Full {
			// The paper's microbenchmark runs on the Stock table at 24
			// warehouses: 2.4M rows.
			p.MicroRows = 2400000
		} else {
			// Large enough that read-write conflicts (the paper's subject)
			// dominate write-write collisions even at the 10k read set.
			p.MicroRows = 200000
		}
	}
	if p.Customers == 0 {
		if p.Full {
			p.Customers = 5000
		} else {
			p.Customers = 300
		}
	}
	if p.Out == nil {
		p.Out = io.Discard
	}
}

func (p *Params) printf(format string, args ...any) {
	fmt.Fprintf(p.Out, format, args...)
}

// writeReport writes an experiment's machine-readable report to JSONPath as
// indented JSON; it does nothing when JSONPath is empty.
func (p *Params) writeReport(report any) error {
	if p.JSONPath == "" {
		return nil
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(p.JSONPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	p.printf("# wrote %s\n", p.JSONPath)
	return nil
}

// using takes the results of an open call and returns a runner that hands
// the opened value to fn and closes it afterwards, so no experiment cleans
// up by hand: using(OpenEngine(name))(func(db engine.DB) error { ... }).
func using[T interface{ Close() error }](v T, err error) func(fn func(T) error) error {
	return func(fn func(T) error) error {
		if err != nil {
			return err
		}
		defer v.Close()
		return fn(v)
	}
}

// OpenEngine creates a fresh engine by experiment name.
func OpenEngine(name string) (engine.DB, error) {
	switch name {
	case EngERMIASI, EngERMIASSN:
		cfg := coreConfig()
		cfg.Serializable = name == EngERMIASSN
		return core.Open(cfg)
	case EngSilo:
		return silo.Open(silo.Config{Snapshots: true})
	default:
		return nil, fmt.Errorf("bench: unknown engine %q", name)
	}
}

// coreConfig is the ERMIA-SI configuration of OpenEngine; Figures 10 and 11
// set core-only knobs on top of it.
func coreConfig() core.Config {
	return core.Config{
		WAL:        wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20},
		GCInterval: 50 * time.Millisecond,
	}
}

// workload is TPC-C or TPC-E reduced to what the experiments vary: it loads
// once, then runs its stock or hybrid mix at a size of the read-mostly
// transaction (TPC-CH-Q2* or AssetEval).
type workload struct {
	name   string // "TPC-C" or "TPC-E"
	target string // the read-mostly transaction's name
	load   func(db engine.DB) error
	// exec returns the harness body for one run at size, plus the
	// benchmark's intentional-rollback classifier (nil if it has none).
	exec func(db engine.DB, size int, hybrid bool) (Exec, func(error) bool)
}

func (p *Params) tpccConfig(warehouses int, access tpcc.AccessMode) tpcc.Config {
	cfg := tpcc.Config{Warehouses: warehouses, Items: p.Items, Q2SizePct: 10, Access: access}
	if !p.Full {
		cfg.CustomersPerDistrict = 600
	}
	return cfg
}

// tpccWorkload runs TPC-C on cfg; a run's size replaces cfg.Q2SizePct.
func tpccWorkload(cfg tpcc.Config) workload {
	return workload{
		name:   "TPC-C",
		target: tpcc.Q2Star.String(),
		load:   func(db engine.DB) error { return tpcc.NewDriver(db, cfg).Load() },
		exec: func(db engine.DB, size int, hybrid bool) (Exec, func(error) bool) {
			run := cfg
			run.Q2SizePct = size
			d := tpcc.NewDriver(db, run)
			mix := tpcc.StandardMix
			if hybrid {
				mix = tpcc.HybridMix
			}
			return func(worker int, rng *xrand.Rand) (string, error) {
				kind := tpcc.Pick(mix, rng)
				return kind.String(), d.Run(kind, worker, rng)
			}, tpcc.IsUserAbort
		},
	}
}

// tpceWorkload runs TPC-E at p.Customers; a run's size is the AssetEval
// footprint.
func (p *Params) tpceWorkload() workload {
	customers := p.Customers
	return workload{
		name:   "TPC-E",
		target: tpce.AssetEval.String(),
		load: func(db engine.DB) error {
			return tpce.NewDriver(db, tpce.Config{Customers: customers}).Load()
		},
		exec: func(db engine.DB, size int, hybrid bool) (Exec, func(error) bool) {
			d := tpce.NewDriver(db, tpce.Config{Customers: customers, AssetEvalSizePct: size})
			mix := tpce.StandardMix
			if hybrid {
				mix = tpce.HybridMix
			}
			return func(worker int, rng *xrand.Rand) (string, error) {
				kind := tpce.Pick(mix, rng)
				return kind.String(), d.Run(kind, worker, rng)
			}, nil
		},
	}
}

// run drives w on db for one measurement point of p.Duration.
func (p *Params) run(db engine.DB, w workload, size int, hybrid bool, threads int) (Result, error) {
	exec, isUser := w.exec(db, size, hybrid)
	res := Run(Options{Workers: threads, Duration: p.Duration, Exec: exec, IsUserAbort: isUser})
	return res, res.Err
}

// engineSweep runs load on a fresh copy of every engine in turn and calls
// points with it; the engine is closed when points returns.
func engineSweep(load func(engine.DB) error, points func(eng string, db engine.DB) error) error {
	for _, eng := range AllEngines {
		err := using(OpenEngine(eng))(func(db engine.DB) error {
			if err := load(db); err != nil {
				return err
			}
			return points(eng, db)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// threadSweep runs w at every thread step on every engine, handing each
// result to row: the shared shape of Figures 7, 8, 9 and 12.
func (p *Params) threadSweep(w workload, size int, hybrid bool, row func(eng string, threads int, res Result)) error {
	return engineSweep(w.load, func(eng string, db engine.DB) error {
		for _, th := range p.threadSteps() {
			res, err := p.run(db, w, size, hybrid, th)
			if err != nil {
				return err
			}
			row(eng, th, res)
		}
		return nil
	})
}

// ---- Experiments ----

// Fig1 reproduces Figure 1: microbenchmark throughput as the write/read
// ratio grows, at read-set sizes 1k and 10k.
func Fig1(p Params) error {
	p.setDefaults()
	ratios := []float64{0.001, 0.003, 0.01, 0.03, 0.1}
	p.printf("# Figure 1: microbenchmark, %d rows, %d threads, %v/point\n",
		p.MicroRows, p.Threads, p.Duration)
	p.printf("%-10s %-9s %-10s %12s %10s\n", "readset", "w/r", "engine", "kTps", "abort%")
	for _, reads := range []int{1000, 10000} {
		load := func(db engine.DB) error {
			return micro.NewDriver(db, micro.Config{Rows: p.MicroRows, Reads: reads}).Load()
		}
		err := engineSweep(load, func(eng string, db engine.DB) error {
			for _, ratio := range ratios {
				dr := micro.NewDriver(db, micro.Config{Rows: p.MicroRows, Reads: reads, WriteRatio: ratio})
				res := Run(Options{
					Workers:  p.Threads,
					Duration: p.Duration,
					Exec: func(worker int, rng *xrand.Rand) (string, error) {
						return "micro", dr.Run(worker, rng)
					},
				})
				if res.Err != nil {
					return res.Err
				}
				p.printf("%-10d %-9g %-10s %12.2f %9.1f%%\n",
					reads, ratio, eng, res.Throughput()/1000, res.Kinds["micro"].AbortRatio()*100)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig2 reproduces Figure 2: per-transaction commit rates for TPC-C and for
// TPC-C + Q2* (10% size); Silo starves Q2*.
func Fig2(p Params) error {
	p.setDefaults()
	w := tpccWorkload(p.tpccConfig(p.Threads, tpcc.AccessHome))
	for _, hybrid := range []bool{false, true} {
		label := "TPC-C"
		if hybrid {
			label = "TPC-C + Q2* (10% size)"
		}
		p.printf("# Figure 2: %s, %d warehouses, %d threads\n", label, p.Threads, p.Threads)
		p.printf("%-10s %-14s %12s %12s %10s\n", "engine", "txn", "commits/s", "attempts/s", "abort%")
		err := engineSweep(w.load, func(eng string, db engine.DB) error {
			res, err := p.run(db, w, 10, hybrid, p.Threads)
			if err != nil {
				return err
			}
			for _, kind := range []tpcc.TxnKind{tpcc.NewOrder, tpcc.Payment,
				tpcc.OrderStatus, tpcc.Delivery, tpcc.StockLevel, tpcc.Q2Star} {
				if k, ok := res.Kinds[kind.String()]; ok {
					p.printf("%-10s %-14s %12.0f %12.0f %9.1f%%\n", eng, kind,
						float64(k.Commits)/res.Duration.Seconds(),
						float64(k.Attempts)/res.Duration.Seconds(),
						k.AbortRatio()*100)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// hybridSizes are the read-mostly transaction sizes of Figures 5 and 6.
var hybridSizes = []int{1, 20, 40, 60, 80, 100}

// Fig5 reproduces Figure 5: TPC-C-hybrid overall throughput, Q2*
// throughput, and Q2* abort ratio vs Q2* size, normalized to ERMIA-SI.
func Fig5(p Params) error {
	p.setDefaults()
	return p.hybridFigure("Figure 5: TPC-C-hybrid vs TPC-CH-Q2* size",
		tpccWorkload(p.tpccConfig(p.Threads, tpcc.AccessHome)))
}

// Fig6 reproduces Figure 6: TPC-E-hybrid panels vs AssetEval size.
func Fig6(p Params) error {
	p.setDefaults()
	return p.hybridFigure("Figure 6: TPC-E-hybrid vs AssetEval size", p.tpceWorkload())
}

// hybridRow is one point of the Figure 5 / Figure 6 panels.
type hybridRow struct {
	overallTPS float64
	targetTPS  float64
	abortPct   float64
}

// hybridFigure sweeps w's hybrid mix over hybridSizes on every engine and
// prints each point normalized to ERMIA-SI at the same size.
func (p *Params) hybridFigure(title string, w workload) error {
	rows := map[string]map[int]hybridRow{}
	err := engineSweep(w.load, func(eng string, db engine.DB) error {
		rows[eng] = map[int]hybridRow{}
		for _, size := range hybridSizes {
			res, err := p.run(db, w, size, true, p.Threads)
			if err != nil {
				return err
			}
			row := hybridRow{overallTPS: res.Throughput()}
			if k, ok := res.Kinds[w.target]; ok {
				row.targetTPS = float64(k.Commits) / res.Duration.Seconds()
				row.abortPct = k.AbortRatio() * 100
			}
			rows[eng][size] = row
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.printf("# %s (%d threads; normalized to ERMIA-SI; absolute ERMIA-SI TPS last column)\n",
		title, p.Threads)
	p.printf("%-6s %-10s %14s %14s %12s %14s\n",
		"size%", "engine", "norm-overall", "norm-"+w.target, w.target+"-abort%", "ERMIA-SI-TPS")
	for _, size := range hybridSizes {
		b := rows[EngERMIASI][size]
		for _, eng := range AllEngines {
			r := rows[eng][size]
			normO, normT := 0.0, 0.0
			if b.overallTPS > 0 {
				normO = r.overallTPS / b.overallTPS
			}
			if b.targetTPS > 0 {
				normT = r.targetTPS / b.targetTPS
			}
			p.printf("%-6d %-10s %14.3f %14.3f %11.1f%% %14.0f\n",
				size, eng, normO, normT, r.abortPct, b.overallTPS)
		}
	}
	return nil
}

// threadSteps picks the scalability sweep points.
func (p *Params) threadSteps() []int {
	if p.Full {
		return []int{1, 6, 12, 18, 24}
	}
	steps := []int{1, 2, 4}
	if p.Threads > 4 {
		steps = append(steps, p.Threads)
	}
	return steps
}

// maxThreads is the largest thread step: the sweeps load one warehouse per
// worker at the largest step.
func (p *Params) maxThreads() int {
	steps := p.threadSteps()
	return steps[len(steps)-1]
}

// Fig7 reproduces Figure 7: TPC-C and TPC-E throughput vs thread count.
func Fig7(p Params) error {
	p.setDefaults()
	p.printf("# Figure 7: scalability, stock mixes (%v/point)\n", p.Duration)
	p.printf("%-8s %-8s %-10s %12s\n", "bench", "threads", "engine", "kTps")
	for _, w := range []workload{tpccWorkload(p.tpccConfig(p.maxThreads(), tpcc.AccessHome)), p.tpceWorkload()} {
		err := p.threadSweep(w, 10, false, func(eng string, th int, res Result) {
			p.printf("%-8s %-8d %-10s %12.2f\n", w.name, th, eng, res.Throughput()/1000)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: TPC-C with uniform and 80-20 skewed warehouse
// targeting vs thread count.
func Fig8(p Params) error {
	p.setDefaults()
	p.printf("# Figure 8: TPC-C with randomized partition targeting\n")
	p.printf("%-9s %-8s %-10s %12s %10s\n", "access", "threads", "engine", "kTps", "abort%")
	for _, access := range []tpcc.AccessMode{tpcc.AccessUniform, tpcc.AccessSkew} {
		name := "uniform"
		if access == tpcc.AccessSkew {
			name = "80-20"
		}
		w := tpccWorkload(p.tpccConfig(p.maxThreads(), access))
		err := p.threadSweep(w, 10, false, func(eng string, th int, res Result) {
			var aborts, attempts uint64
			for _, k := range res.Kinds {
				aborts += k.Aborts
				attempts += k.Attempts
			}
			abortPct := 0.0
			if attempts > 0 {
				abortPct = float64(aborts) / float64(attempts) * 100
			}
			p.printf("%-9s %-8d %-10s %12.2f %9.1f%%\n", name, th, eng,
				res.Throughput()/1000, abortPct)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig9 reproduces Figure 9: TPC-E-hybrid scalability at 10% and 60%
// AssetEval sizes.
func Fig9(p Params) error {
	p.setDefaults()
	p.printf("# Figure 9: TPC-E-hybrid scalability\n")
	p.printf("%-6s %-8s %-10s %12s\n", "size%", "threads", "engine", "kTps")
	for _, size := range []int{10, 60} {
		err := p.threadSweep(p.tpceWorkload(), size, true, func(eng string, th int, res Result) {
			p.printf("%-6d %-8d %-10s %12.3f\n", size, th, eng, res.Throughput()/1000)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig10 reproduces Figure 10: ERMIA-SI with one log reservation per
// transaction vs one per update operation, on TPC-C.
func Fig10(p Params) error {
	p.setDefaults()
	p.printf("# Figure 10: ERMIA-SI logging strategies, TPC-C\n")
	p.printf("%-8s %-8s %12s %14s %14s\n", "mode", "threads", "kTps", "log-resv/txn", "log-KB/txn")
	w := tpccWorkload(p.tpccConfig(p.maxThreads(), tpcc.AccessHome))
	for _, perOp := range []bool{false, true} {
		mode := "Per-TX"
		if perOp {
			mode = "Per-OP"
		}
		cfg := coreConfig()
		cfg.LogPerOperation = perOp
		err := using(core.Open(cfg))(func(db *core.DB) error {
			if err := w.load(db); err != nil {
				return err
			}
			for _, th := range p.threadSteps() {
				before := db.Log().Stats()
				res, err := p.run(db, w, 10, false, th)
				if err != nil {
					return err
				}
				after := db.Log().Stats()
				commits := float64(res.TotalCommits())
				resvPerTxn, kbPerTxn := 0.0, 0.0
				if commits > 0 {
					resvPerTxn = float64(after.Reservations-before.Reservations) / commits
					kbPerTxn = float64(after.Flushed-before.Flushed) / commits / 1024
				}
				p.printf("%-8s %-8d %12.2f %14.2f %14.2f\n",
					mode, th, res.Throughput()/1000, resvPerTxn, kbPerTxn)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig11 reproduces Figure 11: ERMIA-SI per-transaction cycle breakdown by
// component (index / indirection / log / other) as threads grow.
func Fig11(p Params) error {
	p.setDefaults()
	p.printf("# Figure 11: ERMIA-SI component breakdown per committed txn, TPC-C\n")
	p.printf("%-8s %12s %10s %10s %10s %10s\n",
		"threads", "us/txn", "index%", "indir%", "log%", "other%")
	w := tpccWorkload(p.tpccConfig(p.maxThreads(), tpcc.AccessHome))
	cfg := coreConfig()
	cfg.Profile = true
	for _, th := range p.threadSteps() {
		err := using(core.Open(cfg))(func(db *core.DB) error {
			if err := w.load(db); err != nil {
				return err
			}
			// profile sums the workers' counters; the difference around the
			// run excludes the load phase.
			profile := func() (idx, ind, lg int64) {
				for wk := 0; wk < th; wk++ {
					prof := db.WorkerProfile(wk)
					idx += prof.Index.Load()
					ind += prof.Indirect.Load()
					lg += prof.Log.Load()
				}
				return
			}
			idx0, ind0, lg0 := profile()
			res, err := p.run(db, w, 10, false, th)
			if err != nil {
				return err
			}
			idx, ind, lg := profile()
			idx, ind, lg = idx-idx0, ind-ind0, lg-lg0
			commits := res.TotalCommits()
			if commits == 0 {
				return nil
			}
			totalBusy := res.Duration.Nanoseconds() * int64(th)
			other := max(totalBusy-idx-ind-lg, 0)
			usPerTxn := float64(totalBusy) / float64(commits) / 1000
			p.printf("%-8d %12.1f %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", th, usPerTxn,
				pct(idx, totalBusy), pct(ind, totalBusy), pct(lg, totalBusy), pct(other, totalBusy))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total) * 100
}

// Fig12 reproduces Figure 12: Q2* latency vs threads at 60% and 80% sizes.
func Fig12(p Params) error {
	p.setDefaults()
	p.printf("# Figure 12: TPC-CH-Q2* latency (committed executions)\n")
	p.printf("%-6s %-8s %-10s %12s %12s %12s\n",
		"size%", "threads", "engine", "mean-ms", "min-ms", "max-ms")
	w := tpccWorkload(p.tpccConfig(p.maxThreads(), tpcc.AccessHome))
	for _, size := range []int{60, 80} {
		err := p.threadSweep(w, size, true, func(eng string, th int, res Result) {
			k, ok := res.Kinds[w.target]
			if !ok || k.Commits == 0 {
				p.printf("%-6d %-8d %-10s %12s %12s %12s\n", size, th, eng, "starved", "-", "-")
				return
			}
			p.printf("%-6d %-8d %-10s %12.2f %12.2f %12.2f\n", size, th, eng,
				ms(k.MeanLatency()), ms(k.MinLatency()), ms(k.MaxLatency()))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Table1 reproduces Table 1: absolute overall TPS of ERMIA-SI on both
// hybrid workloads over the read-mostly transaction's size.
func Table1(p Params) error {
	p.setDefaults()
	sizes := []int{1, 5, 10, 20, 40, 60, 80, 100}
	p.printf("# Table 1: overall TPS of ERMIA-SI over read-mostly txn size\n")
	p.printf("%-14s", "workload")
	for _, s := range sizes {
		p.printf(" %9d%%", s)
	}
	p.printf("\n")
	for _, w := range []workload{tpccWorkload(p.tpccConfig(p.Threads, tpcc.AccessHome)), p.tpceWorkload()} {
		err := using(OpenEngine(EngERMIASI))(func(db engine.DB) error {
			if err := w.load(db); err != nil {
				return err
			}
			p.printf("%-14s", w.name+"-hybrid")
			for _, size := range sizes {
				res, err := p.run(db, w, size, true, p.Threads)
				if err != nil {
					return err
				}
				p.printf(" %10.0f", res.Throughput())
			}
			p.printf("\n")
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Experiment is one named ermia-bench experiment.
type Experiment struct {
	Name string
	Run  func(Params) error
}

// Experiments lists every experiment in the order "all" runs them: the
// paper's §4 figures and Table 1 first, then the experiments on this
// reproduction's own subsystems (network server, replication, checkpoints,
// network chaos, queries, sharding).
var Experiments = []Experiment{
	{"fig1", Fig1}, {"fig2", Fig2}, {"fig5", Fig5}, {"fig6", Fig6},
	{"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10},
	{"fig11", Fig11}, {"fig12", Fig12}, {"table1", Table1},
	{"server", ServerBench}, {"repl", ReplBench}, {"ckpt", CkptBench},
	{"chaos", ChaosBench}, {"query", QueryBench}, {"shard", ShardBench},
}

// LookupExperiment finds an experiment by name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
