package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/proto"
	"ermia/internal/wal"
)

// This file holds the decorators the traced run measures the layers
// through. Each wraps a public seam and records spans and counts around the
// calls it forwards; none changes what the wrapped layer does.

// sampleEvery is how many requests per worker the traced run counts for
// each one whose spans it records. Recording every request kept over five
// million spans for half a tpcc-hybrid run (Q2* alone makes hundreds).
const sampleEvery = 8

// noSpans, as a worker's parent, marks its next transaction unsampled.
const noSpans = ^uint64(0)

// dbWrap decorates an engine.DB (the embedded core, or the network client)
// so every transaction call of a sampled request becomes a span charged to
// that layer. Every transaction is counted.
type dbWrap struct {
	engine.DB
	tr   *tracer
	base spanName // the layer's spXxxBegin
	slot int      // first span slot; worker w records into slot+w

	// parent holds, per worker, the span the next transaction's calls hang
	// under: 0 makes the transaction a request of its own, sampled here;
	// noSpans records nothing.
	parent [core.MaxWorkers]uint64
	// ticks counts requests per worker, for sampling. A worker slot is used
	// by one goroutine at a time.
	ticks [core.MaxWorkers]uint64

	userBytes   atomic.Uint64 // key+value bytes written by Insert/Update
	rowsScanned atomic.Uint64 // rows visited by Scan callbacks
}

// sample reports whether worker's next request is one whose spans are
// recorded.
func (w *dbWrap) sample(worker int) bool {
	i := worker % core.MaxWorkers
	w.ticks[i]++
	return w.ticks[i]%sampleEvery == 1
}

func newDBWrap(db engine.DB, tr *tracer, base spanName, slot int) *dbWrap {
	return &dbWrap{DB: db, tr: tr, base: base, slot: slot}
}

// setParent makes worker's next transactions record under span id.
func (w *dbWrap) setParent(worker int, id uint64) { w.parent[worker%core.MaxWorkers] = id }

func (w *dbWrap) Begin(worker int) engine.Txn {
	return w.begin(worker, func() engine.Txn { return w.DB.Begin(worker) })
}

func (w *dbWrap) BeginReadOnly(worker int) engine.Txn {
	return w.begin(worker, func() engine.Txn { return w.DB.BeginReadOnly(worker) })
}

func (w *dbWrap) begin(worker int, open func() engine.Txn) engine.Txn {
	t := &txnWrap{w: w, slot: w.slot + worker%64}
	switch p := w.parent[worker%core.MaxWorkers]; {
	case p == noSpans:
	case p != 0:
		t.rec, t.parent, t.req = true, p, p
	case w.sample(worker):
		t.rec, t.req = true, w.tr.newID()
	}
	start := t.start()
	t.inner = open()
	t.done(opBegin, start)
	return t
}

// txnWrap decorates one transaction; see dbWrap.
type txnWrap struct {
	w           *dbWrap
	inner       engine.Txn
	slot        int
	rec         bool // the transaction's request is sampled
	parent, req uint64
	rows        uint64 // rows this transaction's scans visited
}

// setParent re-parents the transaction's later calls (a query span opened
// after Begin).
func (t *txnWrap) setParent(id uint64) { t.parent = id }

func (t *txnWrap) start() int64 {
	if !t.rec {
		return 0
	}
	return t.w.tr.now()
}

func (t *txnWrap) done(op int, start int64) {
	if !t.rec {
		return
	}
	t.w.tr.add(t.slot, span{ID: t.w.tr.newID(), Parent: t.parent, Req: t.req,
		Start: start, End: t.w.tr.now(), Name: t.w.base + spanName(op)})
}

func (t *txnWrap) Get(tb engine.Table, key []byte) ([]byte, error) {
	s := t.start()
	v, err := t.inner.Get(tb, key)
	t.done(opGet, s)
	return v, err
}

func (t *txnWrap) Insert(tb engine.Table, key, value []byte) error {
	s := t.start()
	err := t.inner.Insert(tb, key, value)
	t.done(opInsert, s)
	t.w.userBytes.Add(uint64(len(key) + len(value)))
	return err
}

func (t *txnWrap) Update(tb engine.Table, key, value []byte) error {
	s := t.start()
	err := t.inner.Update(tb, key, value)
	t.done(opUpdate, s)
	t.w.userBytes.Add(uint64(len(key) + len(value)))
	return err
}

func (t *txnWrap) Delete(tb engine.Table, key []byte) error {
	s := t.start()
	err := t.inner.Delete(tb, key)
	t.done(opDelete, s)
	return err
}

// Scan's span is the parent of calls the callback makes on the same
// transaction (Q2* reads stock rows from inside its supplier scan), so
// those are not charged twice. The callback's own code counts as scan time.
func (t *txnWrap) Scan(tb engine.Table, lo, hi []byte, fn func(key, value []byte) bool) error {
	var n uint64
	count := func(k, v []byte) bool {
		n++
		return fn(k, v)
	}
	var err error
	if t.rec {
		id, parent := t.w.tr.newID(), t.parent
		t.parent = id
		s := t.w.tr.now()
		err = t.inner.Scan(tb, lo, hi, count)
		t.parent = parent
		t.w.tr.add(t.slot, span{ID: id, Parent: parent, Req: t.req, Start: s, End: t.w.tr.now(), Name: t.w.base + opScan})
	} else {
		err = t.inner.Scan(tb, lo, hi, count)
	}
	t.rows += n
	t.w.rowsScanned.Add(n)
	return err
}

func (t *txnWrap) Commit() error {
	s := t.start()
	err := t.inner.Commit()
	t.done(opCommit, s)
	return err
}

func (t *txnWrap) Abort() {
	s := t.start()
	t.inner.Abort()
	t.done(opAbort, s)
}

// serverCore decorates the engine a server serves. Embedding keeps every
// capability the server probes for (WaitDurable, SyncCommit, Log, ...);
// only transaction starts are intercepted. Server-side calls have no
// benchmark parent, so each transaction is a request of its own.
type serverCore struct {
	*core.DB
	wrap *dbWrap
}

func newServerCore(db *core.DB, tr *tracer) *serverCore {
	return &serverCore{DB: db, wrap: newDBWrap(db, tr, spCoreBegin, serverSlot)}
}

func (s *serverCore) Begin(worker int) engine.Txn { return s.wrap.Begin(worker) }

func (s *serverCore) BeginReadOnly(worker int) engine.Txn { return s.wrap.BeginReadOnly(worker) }

// storageWrap decorates the log's storage: it counts bytes written and
// syncs, and records a wal span per WriteAt and Sync.
type storageWrap struct {
	wal.Storage
	tr                *tracer
	writeBytes, syncs atomic.Uint64
}

func (s *storageWrap) Create(name string) (wal.File, error) {
	f, err := s.Storage.Create(name)
	if err != nil {
		return nil, err
	}
	return &fileWrap{File: f, s: s}, nil
}

func (s *storageWrap) Open(name string) (wal.File, error) {
	f, err := s.Storage.Open(name)
	if err != nil {
		return nil, err
	}
	return &fileWrap{File: f, s: s}, nil
}

type fileWrap struct {
	wal.File
	s *storageWrap
}

func (f *fileWrap) span(name spanName, start int64) {
	tr := f.s.tr
	id := tr.newID()
	tr.add(walSlot, span{ID: id, Req: id, Start: start, End: tr.now(), Name: name})
}

func (f *fileWrap) WriteAt(p []byte, off int64) (int, error) {
	start := f.s.tr.now()
	n, err := f.File.WriteAt(p, off)
	f.span(spWalWriteAt, start)
	f.s.writeBytes.Add(uint64(n))
	return n, err
}

func (f *fileWrap) Sync() error {
	start := f.s.tr.now()
	err := f.File.Sync()
	f.span(spWalSync, start)
	f.s.syncs.Add(1)
	return err
}

// sockStats counts socket calls on one side of the wire.
type sockStats struct {
	reads, writes atomic.Uint64
}

// countConn decorates a net.Conn: it adds its socket calls to st and
// counts the protocol frames it writes, parsed from the byte stream. The
// parser assumes one writer per connection, which both the client and the
// server keep.
type countConn struct {
	net.Conn
	st     *sockStats
	frames atomic.Uint64
	hdr    [proto.HeaderSize]byte
	nhdr   int    // header bytes seen of the current frame
	body   uint64 // payload+checksum bytes still to skip
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.st.writes.Add(1)
	c.countFrames(p[:n])
	return n, err
}

func (c *countConn) countFrames(p []byte) {
	for len(p) > 0 {
		if c.body > 0 {
			k := min(uint64(len(p)), c.body)
			c.body -= k
			p = p[k:]
			continue
		}
		k := copy(c.hdr[c.nhdr:], p)
		c.nhdr += k
		p = p[k:]
		if c.nhdr == proto.HeaderSize {
			c.nhdr = 0
			c.body = uint64(binary.LittleEndian.Uint32(c.hdr[16:])) + 4
			c.frames.Add(1)
		}
	}
}

// countDialer is a client.Options.Dial that wraps every connection; conns
// lists them in dial order.
type countDialer struct {
	st    sockStats
	mu    sync.Mutex
	conns []*countConn
}

// conn returns the i-th connection dialed, or nil.
func (d *countDialer) conn(i int) *countConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < len(d.conns) {
		return d.conns[i]
	}
	return nil
}

func (d *countDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &countConn{Conn: nc, st: &d.st}
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	return c, nil
}

// countListener wraps every accepted connection.
type countListener struct {
	net.Listener
	st sockStats
}

func (l *countListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: nc, st: &l.st}, nil
}
