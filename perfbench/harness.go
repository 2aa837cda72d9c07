package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/server"
	"ermia/internal/tpcc"
	"ermia/internal/wal"
)

// opts configures one setup of a workload.
type opts struct {
	seed uint64
	tr   *tracer // non-nil: the traced run (wrappers on, Profile on)
	// small shrinks data sizes, and callers (if set) the kv-wire callers,
	// for the package's own tests.
	small   bool
	callers int
}

// instance is one set-up workload: an engine with its data loaded (and, for
// kv-wire, a server and a dialed client), ready for its first timed request.
type instance interface {
	// drive runs the workload for d and returns what it did. phase salts
	// the workers' random streams so warm-up and measurement differ.
	drive(d time.Duration, phase, seed uint64) *tally
	// db is the engine whose public counters the run reports.
	db() *core.DB
	// medium is the log's storage.
	medium() *wal.MemStorage
	// userBytes is the key+value bytes loaded at setup.
	userBytes() uint64
	// layers reports the run's decorators (nil outside the traced run).
	layers() *layers
	// check verifies the outputs after a drive; it returns violations.
	check() []string
	// close shuts everything down and runs any after-close checks.
	close() []string
}

// layers gathers the decorators of a traced instance.
type layers struct {
	tr     *tracer
	app    *dbWrap      // the decorator the benchmark's transactions go through
	wal    *storageWrap // the log storage
	dialer *countDialer // kv-wire: client sockets
	lis    *countListener
	cl     *client.Client // kv-wire
	srv    *server.Server // kv-wire
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	setup func(o opts) (instance, error)
}

// maxRetries bounds how often one logical transaction is retried after
// concurrency aborts before it counts as failed.
const maxRetries = 1000

// kindStats counts attempts per TPC-C transaction kind.
type kindStats struct{ attempts, commits, conflicts uint64 }

// tally is what a drive did, merged over its workers.
type tally struct {
	attempts  uint64 // every try, retries included
	commits   uint64
	rollbacks uint64        // the workload's intentional rollbacks
	conflicts uint64        // tries that ended in a retryable abort
	ops       uint64        // logical transactions started
	failed    uint64        // logical transactions that never committed
	elapsed   time.Duration // measured time; merge sums it

	// writeCommits counts committed transactions that may write; write and
	// read time the workload's primary write and its read-side transaction.
	writeCommits uint64
	write, read  samples
	// Frames each caller's connection wrote during write and read
	// transactions (traced kv-wire only).
	writeReqs, readReqs uint64

	kinds   [tpcc.NumKinds]kindStats
	queries map[string]*samples
	late    samples // open loop: how late each request was issued
	// rows returned by analytic queries, and rows their scans visited.
	qRows, qExamined uint64

	errs []string
}

func (t *tally) noteErr(format string, args ...any) {
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempts += o.attempts
	t.commits += o.commits
	t.rollbacks += o.rollbacks
	t.conflicts += o.conflicts
	t.ops += o.ops
	t.failed += o.failed
	t.elapsed += o.elapsed
	t.writeCommits += o.writeCommits
	t.write.merge(&o.write)
	t.read.merge(&o.read)
	t.writeReqs += o.writeReqs
	t.readReqs += o.readReqs
	for i := range t.kinds {
		t.kinds[i].attempts += o.kinds[i].attempts
		t.kinds[i].commits += o.kinds[i].commits
		t.kinds[i].conflicts += o.kinds[i].conflicts
	}
	for name, s := range o.queries {
		if t.queries == nil {
			t.queries = make(map[string]*samples)
		}
		if t.queries[name] == nil {
			t.queries[name] = &samples{}
		}
		t.queries[name].merge(s)
	}
	t.late.merge(&o.late)
	t.qRows += o.qRows
	t.qExamined += o.qExamined
	for _, e := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

// outcome of one logical transaction.
type outcome int

const (
	committed outcome = iota
	rolledBack
	gaveUp
)

// run executes one logical transaction: fn is tried until it commits, is
// intentionally rolled back, fails with a non-retryable error, or has
// been retried maxRetries times. onTry sees every try's error.
func (t *tally) run(fn func() error, onTry func(err error)) outcome {
	t.ops++
	for try := 0; try <= maxRetries; try++ {
		err := fn()
		t.attempts++
		if onTry != nil {
			onTry(err)
		}
		switch {
		case err == nil:
			t.commits++
			return committed
		case tpcc.IsUserAbort(err):
			t.rollbacks++
			return rolledBack
		case engine.IsRetryable(err):
			t.conflicts++
		default:
			t.failed++
			t.noteErr("%v", err)
			return gaveUp
		}
	}
	t.failed++
	t.noteErr("gave up after %d retries", maxRetries)
	return gaveUp
}

// isolate returns the process to a quiet state between setups and phases:
// previous instances' garbage is collected and its memory returned, so a
// later measurement does not pay for an earlier one.
func isolate() {
	runtime.GC()
	debug.FreeOSMemory()
}

// heapLive is the live heap after a full collection.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// engineHeap is the live heap the instance added over base, not counting
// its log medium. The medium stands in for the tmpfs the paper logs to, so
// it is storage, not the engine's memory; and its buffers' spare capacity
// depends on how the flusher happened to chunk its writes, which made the
// heap of identical setups differ by up to twice the log's size. The
// medium's buffers are read by reflection, as wal.MemStorage exports no
// size of its own.
func engineHeap(inst instance, base uint64) (uint64, error) {
	if err := inst.db().WaitDurable(); err != nil {
		return 0, err
	}
	heap := heapLive()
	files := reflect.ValueOf(inst.medium()).Elem().FieldByName("files")
	if !files.IsValid() {
		return 0, errors.New("wal.MemStorage has no files map to measure")
	}
	var log uint64
	for _, k := range files.MapKeys() {
		f := files.MapIndex(k).Elem()
		for _, field := range []string{"data", "durable"} {
			b := f.FieldByName(field)
			if !b.IsValid() {
				return 0, fmt.Errorf("wal.MemStorage file has no %s buffer to measure", field)
			}
			log += uint64(b.Cap())
		}
	}
	return heap - base - log, nil
}

// procSnap is the process's resource use at one instant.
type procSnap struct {
	at           time.Time
	user, system time.Duration
	totalAlloc   uint64
	numGC        uint32
}

func takeProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		at:         time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		system:     time.Duration(ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
}

// coreSnap is the engine's public counters at one instant.
type coreSnap struct {
	commits, aborts, ww, ssn, phantom, pruned, gcRuns, reservations uint64
	index, indirect, log, other                                     int64 // Profile, ns
}

func takeCore(db *core.DB) coreSnap {
	st := db.Stats()
	s := coreSnap{
		commits: st.Commits.Load(), aborts: st.Aborts.Load(),
		ww: st.WWAborts.Load(), ssn: st.SerialAborts.Load(), phantom: st.PhantomAborts.Load(),
		pruned: st.VersionsPruned.Load(), gcRuns: st.GCRuns.Load(),
	}
	if l := db.Log(); l != nil {
		s.reservations = l.Stats().Reservations
	}
	for w := 0; w < core.MaxWorkers; w++ {
		p := db.WorkerProfile(w)
		s.index += p.Index.Load()
		s.indirect += p.Indirect.Load()
		s.log += p.Log.Load()
		s.other += p.Other.Load()
	}
	return s
}

func (a coreSnap) sub(b coreSnap) coreSnap {
	return coreSnap{
		commits: a.commits - b.commits, aborts: a.aborts - b.aborts,
		ww: a.ww - b.ww, ssn: a.ssn - b.ssn, phantom: a.phantom - b.phantom,
		pruned: a.pruned - b.pruned, gcRuns: a.gcRuns - b.gcRuns,
		reservations: a.reservations - b.reservations,
		index:        a.index - b.index, indirect: a.indirect - b.indirect,
		log: a.log - b.log, other: a.other - b.other,
	}
}

// layerSnap is every layer counter the traced run reads, at one instant.
type layerSnap struct {
	core                                 coreSnap
	walBytes, walSyncs                   uint64
	userBytes, rowsScanned               uint64
	clRetries, clLosses, clWrites        uint64
	srvCommits, srvAborts, srvBatches    uint64
	srvGroupCommits, srvReads, srvWrites uint64
}

func takeLayers(db *core.DB, l *layers) layerSnap {
	s := layerSnap{core: takeCore(db)}
	if l == nil {
		return s
	}
	if l.wal != nil {
		s.walBytes, s.walSyncs = l.wal.writeBytes.Load(), l.wal.syncs.Load()
	}
	if l.app != nil {
		s.userBytes, s.rowsScanned = l.app.userBytes.Load(), l.app.rowsScanned.Load()
	}
	if l.cl != nil {
		st := l.cl.Stats()
		s.clRetries, s.clLosses = st.Retries, st.ConnLosses
	}
	if l.dialer != nil {
		s.clWrites = l.dialer.st.writes.Load()
	}
	if l.srv != nil {
		st := l.srv.Stats()
		s.srvCommits, s.srvAborts, s.srvBatches, s.srvGroupCommits = st.Commits, st.Aborts, st.GroupBatches, st.GroupCommits
	}
	if l.lis != nil {
		s.srvReads, s.srvWrites = l.lis.st.reads.Load(), l.lis.st.writes.Load()
	}
	return s
}
