package main

import (
	"fmt"
	"sync"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/query"
	"ermia/internal/tpcc"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// tpccWarehouses is the scale of both TPC-C workloads.
const tpccWarehouses = 2

// tpccEngine is an embedded ERMIA engine with a TPC-C database loaded.
type tpccEngine struct {
	core   *core.DB
	mem    *wal.MemStorage
	run    engine.DB // what transactions go through: core, or its decorator
	driver *tpcc.Driver
	lay    *layers
	loaded uint64
}

func openTPCC(o opts, serializable bool, cfg tpcc.Config) (*tpccEngine, error) {
	mem := wal.NewMemStorage()
	var st wal.Storage = mem
	var lay *layers
	if o.tr != nil {
		sw := &storageWrap{Storage: st, tr: o.tr}
		st = sw
		lay = &layers{tr: o.tr, wal: sw}
	}
	db, err := core.Open(core.Config{
		WAL:          wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20, Storage: st},
		Serializable: serializable,
		GCInterval:   50 * time.Millisecond,
		Profile:      o.tr != nil,
	})
	if err != nil {
		return nil, err
	}
	if err := tpcc.NewDriver(db, cfg).Load(); err != nil {
		db.Close()
		return nil, err
	}
	e := &tpccEngine{core: db, mem: mem, run: db, lay: lay}
	if lay != nil {
		lay.app = newDBWrap(db, o.tr, spCoreBegin, 0)
		e.run = lay.app
	}
	e.driver = tpcc.NewDriver(e.run, cfg)
	e.loaded, err = tableBytes(db, tpccTables...)
	if err != nil {
		db.Close()
		return nil, err
	}
	return e, nil
}

var tpccTables = []string{
	tpcc.TableWarehouse, tpcc.TableDistrict, tpcc.TableCustomer, tpcc.TableCustName,
	tpcc.TableHistory, tpcc.TableNewOrder, tpcc.TableOrder, tpcc.TableOrderCust,
	tpcc.TableOrderLine, tpcc.TableItem, tpcc.TableStock, tpcc.TableSupplier,
}

// tableBytes sums key and value bytes of every visible row of the tables.
func tableBytes(db engine.DB, tables ...string) (uint64, error) {
	txn := db.BeginReadOnly(0)
	defer txn.Abort()
	var n uint64
	for _, name := range tables {
		t := db.OpenTable(name)
		if t == nil {
			continue
		}
		if err := txn.Scan(t, nil, nil, func(k, v []byte) bool {
			n += uint64(len(k) + len(v))
			return true
		}); err != nil {
			return 0, err
		}
	}
	return n, txn.Commit()
}

func (e *tpccEngine) db() *core.DB            { return e.core }
func (e *tpccEngine) medium() *wal.MemStorage { return e.mem }
func (e *tpccEngine) userBytes() uint64       { return e.loaded }
func (e *tpccEngine) layers() *layers         { return e.lay }

func (e *tpccEngine) close() []string {
	if err := e.core.Close(); err != nil {
		return []string{fmt.Sprintf("close: %v", err)}
	}
	return nil
}

// rootSpan opens a benchmark root span for worker's next transaction, if
// its request is sampled, and returns the function that ends it (no-ops
// outside the traced run).
func rootSpan(lay *layers, worker int) func() {
	if lay == nil {
		return func() {}
	}
	if !lay.app.sample(worker) {
		lay.app.setParent(worker, noSpans)
		return func() {}
	}
	id, start := lay.tr.newID(), lay.tr.now()
	lay.app.setParent(worker, id)
	return func() {
		lay.tr.add(worker, span{ID: id, Req: id, Start: start, End: lay.tr.now(), Name: spBenchTxn})
	}
}

// tpccTxn runs one logical TPC-C transaction of kind, with retries, and
// books it into t. due is when it was meant to start.
func (e *tpccEngine) tpccTxn(t *tally, kind tpcc.TxnKind, worker int, rng *xrand.Rand, due time.Time) {
	ks := &t.kinds[kind]
	out := t.run(func() error {
		end := rootSpan(e.lay, worker)
		defer end()
		return e.driver.Run(kind, worker, rng)
	}, func(err error) {
		ks.attempts++
		if err == nil {
			ks.commits++
		} else if engine.IsRetryable(err) {
			ks.conflicts++
		}
	})
	if out != committed {
		return
	}
	lat := time.Since(due).Nanoseconds()
	switch kind {
	case tpcc.NewOrder:
		t.write.add(lat)
	case tpcc.Q2Star:
		t.read.add(lat)
	}
	if !kind.ReadOnly() {
		t.writeCommits++
	}
}

// ---- tpcc-hybrid ----

// tpccHybrid is the paper's heterogeneous workload: ERMIA-SSN running
// TPC-C-hybrid (Q2* at 10%) with one closed-loop worker whose home
// warehouse is drawn uniformly for each transaction, the log on heap
// storage.
type tpccHybrid struct{ *tpccEngine }

func setupTPCCHybrid(o opts) (instance, error) {
	cfg := tpcc.Config{Warehouses: tpccWarehouses, Items: 10000, CustomersPerDistrict: 600, Q2SizePct: 10,
		Access: tpcc.AccessUniform}
	if o.small {
		cfg.CustomersPerDistrict = 30
	}
	e, err := openTPCC(o, true, cfg)
	if err != nil {
		return nil, err
	}
	return &tpccHybrid{e}, nil
}

// tpccHybridWorkers is one. Two CPU-bound workers on the two vCPUs this
// was tuned on leave no core for the Go collector and the engine's
// background goroutines: in five runs of each, interleaved, Q2*'s p95
// spread 0.218 of its median with two workers and 0.104 with one, while
// the commit rate spread alike (0.089 and 0.082).
const tpccHybridWorkers = 1

func (h *tpccHybrid) drive(d time.Duration, phase, seed uint64) *tally {
	start := time.Now()
	end := start.Add(d)
	parts := make([]tally, tpccHybridWorkers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &parts[w]
			rng := xrand.New2(seed, phase<<8|uint64(w))
			for time.Now().Before(end) {
				kind := tpcc.Pick(tpcc.HybridMix, rng)
				h.tpccTxn(t, kind, w, rng, time.Now())
			}
		}(w)
	}
	wg.Wait()
	total := &tally{}
	for i := range parts {
		total.merge(&parts[i])
	}
	total.elapsed = time.Since(start)
	return total
}

func (h *tpccHybrid) check() []string { return checkTPCC(h.core, tpccWarehouses) }

// ---- ch-htap ----

// chHTAP runs an open-loop TPC-C writer at a fixed rate beside one
// closed-loop stream of CH analytic queries, each in its own snapshot.
type chHTAP struct {
	*tpccEngine
	next int // next CH query, round robin
	seed uint64
}

// chWriterRate is the writer's fixed rate: well below what one worker
// sustains beside the analytic stream on 2 cores, so it keeps its schedule
// and the tables grow the same way in every run. The order tables grow by
// about a quarter of their initial size in an episode at this rate, and by
// half at 200 txn/s, where an episode's read p50 jumped between two values
// about 15% apart as the queries slowed with the data; in five runs of
// each, interleaved, the read p50 spread by 0.116 of its median at
// 200 txn/s against 0.061 here (p95: 0.144 against 0.050).
const chWriterRate = 100

func setupCHHTAP(o opts) (instance, error) {
	cfg := tpcc.Config{Warehouses: tpccWarehouses, Items: 10000, CustomersPerDistrict: 60}
	e, err := openTPCC(o, false, cfg)
	if err != nil {
		return nil, err
	}
	return &chHTAP{tpccEngine: e, seed: o.seed}, nil
}

const (
	chWriterWorker   = 0
	chAnalyticWorker = 1
)

func (c *chHTAP) drive(d time.Duration, phase, seed uint64) *tally {
	start := time.Now()
	end := start.Add(d)
	var writer, reader tally
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.writeLoop(&writer, start, end, xrand.New2(seed, phase<<8))
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(end) {
			c.analytic(&reader)
		}
	}()
	wg.Wait()
	writer.merge(&reader)
	writer.elapsed = time.Since(start)
	return &writer
}

// writeLoop issues StandardMix transactions on a fixed schedule from start
// until end; each is timed from when it was due.
func (c *chHTAP) writeLoop(t *tally, start, end time.Time, rng *xrand.Rand) {
	interval := time.Second / chWriterRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		t.late.add(time.Since(due).Nanoseconds())
		kind := tpcc.Pick(tpcc.StandardMix, rng)
		c.tpccTxn(t, kind, chWriterWorker, rng, due)
	}
}

// analytic runs the next CH query in its own read-only snapshot; one
// execution counts as one read.
func (c *chHTAP) analytic(t *tally) {
	q := tpcc.CHQueries()[c.next]
	c.next = (c.next + 1) % len(tpcc.CHQueries())
	var rows, examined int
	begin := time.Now()
	out := t.run(func() error {
		end := rootSpan(c.lay, chAnalyticWorker)
		defer end()
		txn := c.run.BeginReadOnly(chAnalyticWorker)
		defer txn.Abort()
		var err error
		rows, examined, err = c.collect(txn, q.Plan)
		if err != nil {
			return err
		}
		return txn.Commit()
	}, nil)
	if out != committed {
		return
	}
	lat := time.Since(begin).Nanoseconds()
	t.read.add(lat)
	if t.queries == nil {
		t.queries = make(map[string]*samples)
	}
	if t.queries[q.Name] == nil {
		t.queries[q.Name] = &samples{}
	}
	t.queries[q.Name].add(lat)
	t.qRows += uint64(rows)
	t.qExamined += uint64(examined)
}

// collect runs plan in txn, inside a query span when tracing, and returns
// the result row count and the rows its scans visited (traced run only).
func (c *chHTAP) collect(txn engine.Txn, plan *query.Plan) (rows, examined int, err error) {
	tw, traced := txn.(*txnWrap)
	if !traced {
		out, err := query.Collect(txn, c.run.OpenTable, plan, query.Options{})
		return len(out), 0, err
	}
	before := tw.rows
	if !tw.rec {
		out, err := query.Collect(txn, c.run.OpenTable, plan, query.Options{})
		return len(out), int(tw.rows - before), err
	}
	tr := c.lay.tr
	id, start := tr.newID(), tr.now()
	root := tw.parent
	tw.setParent(id)
	out, err := query.Collect(txn, c.run.OpenTable, plan, query.Options{})
	tw.setParent(root)
	tr.add(chAnalyticWorker, span{ID: id, Parent: root, Req: tw.req, Start: start, End: tr.now(), Name: spQueryRun})
	return len(out), int(tw.rows - before), err
}

// check runs one CH query twice in one snapshot while the writer runs and
// requires identical results, then checks TPC-C consistency once the
// writer stopped.
func (c *chHTAP) check() []string {
	var bad []string
	// The two runs of Q1 take about 170 ms; the writer runs past them.
	stop := time.Now().Add(400 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.writeLoop(&tally{}, time.Now(), stop, xrand.New2(c.seed, 0xC4EC))
	}()
	time.Sleep(50 * time.Millisecond) // let the writer get going
	q := tpcc.CHQueries()[0]
	txn := c.core.BeginReadOnly(chAnalyticWorker)
	first, err1 := query.Collect(txn, c.core.OpenTable, q.Plan, query.Options{})
	time.Sleep(100 * time.Millisecond) // writers commit between the two runs
	second, err2 := query.Collect(txn, c.core.OpenTable, q.Plan, query.Options{})
	txn.Abort()
	switch {
	case err1 != nil || err2 != nil:
		bad = append(bad, fmt.Sprintf("ch-htap: snapshot check: %v / %v", err1, err2))
	default:
		if err := sameRows(first, second); err != nil {
			bad = append(bad, fmt.Sprintf("ch-htap: %s twice in one snapshot differs: %v", q.Name, err))
		}
	}
	wg.Wait()
	return append(bad, checkTPCC(c.core, tpccWarehouses)...)
}
