package bench

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ermia/internal/engine"
	"ermia/internal/query"
	"ermia/internal/tpcc"
	"ermia/internal/xrand"
)

// The query experiment quantifies the HTAP claim the query subsystem rides
// on: because every analytical plan executes inside one SI snapshot, long
// scans neither block nor abort the OLTP writers sharing the tables. Three
// phases over one database:
//
//  1. Analytics alone: each CH-style query runs repeatedly with no writers,
//     giving its baseline latency distribution.
//  2. Writer slices, interleaved: the TPC-C mix runs in short paired
//     slices — one "writers alone" (baseline), one "writers plus an
//     analytical stream" (concurrent), in randomized order within each
//     pair — so the steady table growth TPC-C causes (each slice leaves a
//     bigger database than it found) cancels out of the comparison instead
//     of masquerading as analytical interference.
//
// The analytical stream cycles the CH queries, each in its own snapshot,
// paced CH-style with think time so the stream's CPU duty cycle is bounded
// (~1/(1+think factor)) and the measured writer delta reflects SI
// interference — blocking or conflict aborts would crater throughput far
// beyond the CPU share — rather than raw CPU stealing on small machines.
// The delta must stay inside the acceptance bound at measurement-grade
// durations; each concurrent slice also runs an audit proving the snapshot
// is frozen mid-churn (the same aggregate twice in one snapshot is
// identical).

// QueryLatency is one analytical query's latency distribution.
type QueryLatency struct {
	Name      string `json:"name"`
	Runs      int    `json:"runs"`
	Rows      int    `json:"rows"` // result rows of one run
	P50Micros int64  `json:"p50_us"`
	P95Micros int64  `json:"p95_us"`
	MaxMicros int64  `json:"max_us"`
}

// QueryBenchReport is the machine-readable output of the query experiment
// (written to Params.JSONPath as BENCH_query.json).
type QueryBenchReport struct {
	Benchmark        string  `json:"benchmark"` // "query"
	Engine           string  `json:"engine"`
	Warehouses       int     `json:"warehouses"`
	Threads          int     `json:"threads"`
	AnalyticsWorkers int     `json:"analytics_workers"`
	BaselineTps      float64 `json:"baseline_tps"`
	ConcurrentTps    float64 `json:"concurrent_tps"`
	// WriterDeltaPct is how much writer throughput dropped with analytics
	// running, as a percentage: the median over interleaved slice pairs of
	// each pair's concurrent/baseline throughput ratio.
	WriterDeltaPct float64 `json:"writer_delta_pct"`
	// Queries holds the no-writer latency phase; ConcurrentRuns counts
	// analytical completions during the concurrent phase.
	Queries        []QueryLatency `json:"queries"`
	ConcurrentRuns int            `json:"concurrent_runs"`
}

// queryBenchAccept is the acceptance bound on the writer-throughput delta.
const queryBenchAccept = 15.0

// The analytical stream trickles: each concurrent slice grants it a fixed
// budget of work time (measured as wall time between pacer polls, which
// overestimates its CPU share under contention — the safe direction), and
// once the budget is spent the stream parks until the next slice. This
// bounds the stream's per-slice CPU steal structurally, no matter how
// expensive churn-deepened version chains make an individual row batch.
const (
	queryBudgetPerSlice = 12 * time.Millisecond
	queryPaceMin        = 2 * time.Millisecond
)

// queryPairs is the number of interleaved baseline/concurrent slice pairs.
// Slices are short and pairs many: TPC-C's table growth makes writer
// throughput decay nonlinearly over the phase, and only a fine-grained
// alternation cancels that decay out of the comparison. Which slice of a
// pair runs first is randomized — a fixed alternation resonates with
// periodic background work (GC, log flushes) and biases whichever side
// its phase happens to align with.
const queryPairs = 24

// queryLatencyPhase runs each CH query `runs` times back to back (no
// writers) and fills the report's latency table.
func (p *Params) queryLatencyPhase(db engine.DB, worker, runs int, report *QueryBenchReport) error {
	for _, q := range tpcc.CHQueries() {
		var lats []time.Duration
		rows := 0
		for i := 0; i < runs; i++ {
			t0 := time.Now()
			out, err := query.RunReadOnly(db, worker, q.Plan, query.Options{})
			if err != nil {
				return fmt.Errorf("%s: %w", q.Name, err)
			}
			lats = append(lats, time.Since(t0))
			rows = len(out)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ql := QueryLatency{
			Name: q.Name, Runs: runs, Rows: rows,
			P50Micros: pctMicros(lats, 0.50),
			P95Micros: pctMicros(lats, 0.95),
			MaxMicros: pctMicros(lats, 1.0),
		}
		report.Queries = append(report.Queries, ql)
		p.printf("%-14s %8d %8d %10d %10d %10d\n",
			ql.Name, ql.Runs, ql.Rows, ql.P50Micros, ql.P95Micros, ql.MaxMicros)
	}
	return nil
}

// streamGate pauses the analytical stream outside concurrent slices and
// trickles it inside them, so one long-running query can span several
// slices with its snapshot pinned while the baseline measurement stays
// uncontaminated.
type streamGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	open   bool
	done   bool
	parked bool          // stream is blocked waiting for an open gate + budget
	dead   bool          // stream goroutine exited
	budget time.Duration // remaining work budget in the current window
	// lastRelease is when pace last returned control to the stream; only
	// the stream goroutine touches it.
	lastRelease time.Time
}

func newStreamGate() *streamGate {
	g := &streamGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *streamGate) set(open bool) {
	g.mu.Lock()
	g.open = open
	if open {
		g.budget = queryBudgetPerSlice
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *streamGate) finish() {
	g.mu.Lock()
	g.done = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// exit marks the stream goroutine as gone so quiesce never waits on it.
func (g *streamGate) exit() {
	g.mu.Lock()
	g.dead = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// quiesce blocks until the stream is parked at a closed gate (or gone), so
// no trickle work leaks into the slice that follows a concurrent one: the
// stream may be mid-sleep when the gate closes and would otherwise run one
// more contended batch inside the next measurement window.
func (g *streamGate) quiesce() {
	g.mu.Lock()
	for !g.parked && !g.dead {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// pace is the stream's query.Options.Cancel hook, polled between row
// batches: it charges the work time since the previous poll against the
// window's budget, parks until a fresh window whenever the gate is closed
// or the budget is spent, and reports true once the phase is over. Work
// time is measured before any wait so blocked time is never charged.
func (g *streamGate) pace() bool {
	var busy time.Duration
	if !g.lastRelease.IsZero() {
		busy = time.Since(g.lastRelease)
	}
	g.mu.Lock()
	g.budget -= busy
	if !g.done && (!g.open || g.budget <= 0) {
		g.parked = true
		g.cond.Broadcast()
		for !g.done && (!g.open || g.budget <= 0) {
			g.cond.Wait()
		}
		g.parked = false
	}
	done := g.done
	g.mu.Unlock()
	if done {
		return true
	}
	// A short breath between batches keeps the writers scheduled ahead of
	// the stream even inside the budget window.
	time.Sleep(queryPaceMin)
	g.lastRelease = time.Now()
	return false
}

// runGatedAnalytics cycles CH queries on one engine worker, paced by the
// gate, until the gate finishes. Completions accumulate into *runs (read
// only after the goroutine is joined).
func runGatedAnalytics(db engine.DB, worker int, gate *streamGate, runs *int, errs chan<- error) {
	defer gate.exit()
	byName := make(map[string]tpcc.CHQuery)
	for _, q := range tpcc.CHQueries() {
		byName[q.Name] = q
	}
	// Cheap fixed-cardinality scans first so short concurrent windows still
	// complete whole queries; the scans over growing tables follow and may
	// each span several slices.
	var queries []tpcc.CHQuery
	for _, n := range []string{"Q13-credit", "Q4-ordersize", "Q5-suppliers",
		"Q6-forecast", "Q1-pricing", "Q3-unshipped", "Q14-promo"} {
		queries = append(queries, byName[n])
	}
	for i := 0; ; i++ {
		q := queries[i%len(queries)]
		_, err := query.RunReadOnly(db, worker, q.Plan, query.Options{Cancel: gate.pace})
		if errors.Is(err, engine.ErrQueryCancelled) {
			return // phase over
		}
		if err != nil {
			errs <- fmt.Errorf("%s: %w", q.Name, err)
			return
		}
		*runs++
	}
}

// querySnapshotAudit runs the same aggregate twice inside one snapshot
// while writers churn; the results must be identical (the snapshot cannot
// move mid-query). The customer table is the sharpest probe: its
// cardinality is fixed but Payment updates balances constantly, so a
// leaky snapshot would show different totals between the two passes.
func querySnapshotAudit(db engine.DB, worker int) error {
	plan := tpcc.CHCustomerCredit()
	txn := db.BeginReadOnly(worker)
	defer txn.Abort()
	first, err := query.Collect(txn, db.OpenTable, plan, query.Options{})
	if err != nil {
		return err
	}
	second, err := query.Collect(txn, db.OpenTable, plan, query.Options{})
	if err != nil {
		return err
	}
	if len(first) != len(second) {
		return fmt.Errorf("bench: snapshot moved mid-query: %d then %d groups", len(first), len(second))
	}
	for i := range first {
		for c := range first[i] {
			if first[i][c] != second[i][c] {
				return fmt.Errorf("bench: snapshot moved mid-query: %v then %v", first[i], second[i])
			}
		}
	}
	return nil
}

func pctMicros(lats []time.Duration, p float64) int64 {
	if len(lats) == 0 {
		return 0
	}
	i := int(p * float64(len(lats)-1))
	return lats[i].Microseconds()
}

// QueryBench is the HTAP experiment; see the file comment.
func QueryBench(p Params) error {
	p.setDefaults()
	warehouses := 2
	latencyRuns := 2
	if p.Full {
		warehouses = 4
		latencyRuns = 5
	}

	cfg := p.tpccConfig(warehouses, tpcc.AccessHome)
	if !p.Full {
		// Small districts keep the quick-mode analytical scans at tens of
		// milliseconds so every phase completes quickly; full mode uses the
		// standard quick-bench cardinality.
		cfg.CustomersPerDistrict = 60
	}
	w := tpccWorkload(cfg)
	db, err := OpenEngine(EngERMIASI)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := w.load(db); err != nil {
		return err
	}

	report := QueryBenchReport{
		Benchmark: "query", Engine: EngERMIASI,
		Warehouses: warehouses, Threads: p.Threads, AnalyticsWorkers: 1,
	}
	p.printf("# query: CH-style analytics over live TPC-C tables, %d warehouses, %d threads, %v/phase\n",
		warehouses, p.Threads, p.Duration)

	// Phase 1: analytics alone — per-query latency.
	p.printf("%-14s %8s %8s %10s %10s %10s\n", "query", "runs", "rows", "p50(us)", "p95(us)", "max(us)")
	if err := p.queryLatencyPhase(db, p.Threads, latencyRuns, &report); err != nil {
		return fmt.Errorf("bench: query latency phase: %w", err)
	}

	// Phase 2: interleaved writer slices. Rounds alternate B,C / C,B so
	// the database growth each slice causes cancels between the two sides.
	sliceP := p
	sliceP.Duration = p.Duration / 16
	if sliceP.Duration < 50*time.Millisecond {
		sliceP.Duration = 50 * time.Millisecond
	}
	var baseCommits, concCommits uint64
	var baseSecs, concSecs float64
	var ratios []float64 // per-round concurrent/baseline throughput
	gate := newStreamGate()
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runGatedAnalytics(db, p.Threads, gate, &report.ConcurrentRuns, errs)
	}()
	rng := xrand.New(0x9b17)
	sliceErr := func() error {
		for pair := 0; pair < queryPairs; pair++ {
			var pairBase, pairConc float64
			concFirst := rng.Intn(2) == 1
			for half := 0; half < 2; half++ {
				concurrent := (half == 0) == concFirst
				if !concurrent {
					res, err := sliceP.run(db, w, 10, false, p.Threads)
					if err != nil {
						return fmt.Errorf("bench: query baseline slice: %w", err)
					}
					baseCommits += res.TotalCommits()
					baseSecs += res.Duration.Seconds()
					pairBase = res.Throughput()
					continue
				}
				// Spot-check the frozen-snapshot property in a few slices
				// rather than all: the audit's own scan cost grows with
				// version-chain depth, and the pair median tolerates a few
				// audit-loaded slices.
				audit := pair == 0 || pair == queryPairs/2 || pair == queryPairs-1
				gate.set(true)
				audited := make(chan error, 1)
				if audit {
					go func() { audited <- querySnapshotAudit(db, p.Threads+1) }()
				} else {
					audited <- nil
				}
				res, err := sliceP.run(db, w, 10, false, p.Threads)
				gate.set(false)
				gate.quiesce()
				if err != nil {
					return fmt.Errorf("bench: query concurrent slice: %w", err)
				}
				if aerr := <-audited; aerr != nil {
					return fmt.Errorf("bench: snapshot audit: %w", aerr)
				}
				concCommits += res.TotalCommits()
				concSecs += res.Duration.Seconds()
				pairConc = res.Throughput()
			}
			if pairBase > 0 {
				ratios = append(ratios, pairConc/pairBase)
			}
		}
		return nil
	}()
	gate.finish()
	wg.Wait()
	if sliceErr != nil {
		return sliceErr
	}
	select {
	case aerr := <-errs:
		return fmt.Errorf("bench: analytics stream: %w", aerr)
	default:
	}
	if baseSecs > 0 {
		report.BaselineTps = float64(baseCommits) / baseSecs
	}
	if concSecs > 0 {
		report.ConcurrentTps = float64(concCommits) / concSecs
	}
	// The delta is the median of the per-pair ratios, not the ratio of the
	// aggregates: pairing compares adjacent slices over near-identical
	// table sizes, and the median rejects pairs where a GC pause or log
	// flush landed in one side.
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		report.WriterDeltaPct = (1 - ratios[len(ratios)/2]) * 100
	}

	p.printf("%-14s %12s\n", "phase", "writer-kTps")
	p.printf("%-14s %12.1f\n", "baseline", report.BaselineTps/1000)
	p.printf("%-14s %12.1f   (delta %.1f%%, %d analytical runs)\n",
		"concurrent", report.ConcurrentTps/1000, report.WriterDeltaPct, report.ConcurrentRuns)

	// The HTAP bound. Short smoke runs are too noisy to gate on — enforce
	// only at measurement-grade durations.
	if p.Duration >= time.Second && report.WriterDeltaPct > queryBenchAccept {
		return fmt.Errorf("bench: writer throughput dropped %.1f%% with analytics (bound %.0f%%): %.0f -> %.0f tps",
			report.WriterDeltaPct, queryBenchAccept, report.BaselineTps, report.ConcurrentTps)
	}
	return p.writeReport(&report)
}
