package server

import (
	"bufio"
	"time"

	"sync"
	"sync/atomic"

	"net"

	"ermia/internal/engine"
	"ermia/internal/proto"
	"ermia/internal/repl"
)

// pipelineWindow bounds decoded-but-unprocessed requests per session; a
// client pipelining deeper than this blocks in the TCP stream, which is the
// per-connection backpressure.
const pipelineWindow = 64

// scanPageSize caps key/value pairs in one Scan response page; clients page
// transparently.
const scanPageSize = 1024

// openTxn is one live transaction owned by a session.
type openTxn struct {
	txn      engine.Txn
	slot     int
	readOnly bool
}

type request struct {
	typ     byte
	id      uint64
	payload []byte
	// deadline is the absolute expiry computed from the frame header's
	// relative budget when the frame was read; zero means none. Requests
	// overdue at dispatch are refused with StatusDeadlineExceeded and any
	// transaction they name is aborted, so a stalled pipeline sheds load
	// instead of executing work nobody is waiting for.
	deadline time.Time
}

// session is one connection: a reader goroutine decodes frames into a
// bounded queue, a handler goroutine executes them in arrival order against
// the engine, and a writer goroutine streams out response frames (batched
// into one flush whenever the queue empties). Commit acknowledgments may be
// produced asynchronously by the group committer or a per-commit sync
// goroutine; wg tracks those so teardown never closes the response channel
// under a pending acknowledgment.
type session struct {
	srv *Server
	nc  net.Conn

	reqs chan request
	out  chan []byte
	wg   sync.WaitGroup // outstanding async commit responders

	txns     map[uint64]openTxn
	openTxns atomic.Int32 // mirror of len(txns) readable off-thread
	tables   map[string]engine.Table

	// queries holds open analytical queries (pinned snapshot + iterator),
	// lazily allocated; openQueries mirrors its size for kickIfIdle. Owned
	// by the handler goroutine like txns.
	queries     map[uint64]*runningQuery
	openQueries atomic.Int32

	// replStop, once a replication subscription starts, stops its shipper
	// goroutine. Owned by the handler goroutine (created in
	// handleReplSubscribe, closed in teardown).
	replStop chan struct{}

	writerDone chan struct{}
}

func newSession(srv *Server, nc net.Conn) *session {
	return &session{
		srv:        srv,
		nc:         nc,
		reqs:       make(chan request, pipelineWindow),
		out:        make(chan []byte, 4*pipelineWindow),
		txns:       make(map[uint64]openTxn),
		tables:     make(map[string]engine.Table),
		writerDone: make(chan struct{}),
	}
}

func (s *session) start() {
	go s.readLoop()
	go s.writeLoop()
	go s.run()
}

// kickIfIdle unparks a session that holds no transactions so its handler
// can drain queued work and exit; used by Shutdown. An immediate read
// deadline (rather than closing the connection) lets responses already owed
// still be written.
func (s *session) kickIfIdle() {
	if s.openTxns.Load() == 0 && s.openQueries.Load() == 0 {
		s.nc.SetReadDeadline(time.Unix(1, 0))
	}
}

// forceClose tears the connection down; the reader unblocks with an error
// and the handler aborts whatever is still open.
func (s *session) forceClose() { s.nc.Close() }

//ermia:cancellable
func (s *session) readLoop() {
	defer close(s.reqs)
	br := bufio.NewReaderSize(s.nc, 64<<10)
	idle := s.srv.cfg.IdleTimeout
	for {
		if idle > 0 {
			// Half-open reaper: a peer that sends nothing (not even a Ping)
			// for a full idle window is presumed gone. Left untouched when
			// disabled so kickIfIdle's past-deadline poke is never undone.
			s.nc.SetReadDeadline(time.Now().Add(idle))
		}
		typ, id, dl, payload, err := proto.ReadFrameD(br)
		if err != nil {
			return // EOF, forced close, drain kick, idle/deadline, or framing violation
		}
		req := request{typ: typ, id: id, payload: payload}
		if dl > 0 {
			// The budget is relative: the countdown starts the moment the
			// frame is off the wire, so no clock sync with the client needed.
			req.deadline = time.Now().Add(time.Duration(dl) * time.Millisecond)
		}
		s.reqs <- req
	}
}

//ermia:cancellable
func (s *session) writeLoop() {
	defer close(s.writerDone)
	bw := bufio.NewWriterSize(s.nc, 64<<10)
	dead := false
	for f := range s.out {
		if dead {
			continue // keep draining so producers never block on a dead conn
		}
		// A peer that stops reading must not wedge this writer (and through
		// a full response queue, the group committer) forever.
		s.nc.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
		if _, err := bw.Write(f); err != nil {
			dead = true
		} else if len(s.out) == 0 {
			if err := bw.Flush(); err != nil {
				dead = true
			}
		}
		if dead {
			// Disconnect, don't just drop responses: closing the conn
			// unblocks the reader, so the session tears down and its
			// transactions, slots, and connection slot are reclaimed
			// instead of being held by a peer that stopped reading.
			s.nc.Close()
		}
	}
	if !dead {
		bw.Flush()
	}
}

// respond enqueues one response frame. Callers running outside the handler
// goroutine must be registered in s.wg.
func (s *session) respond(typ byte, reqID uint64, payload []byte) {
	s.out <- proto.AppendFrame(nil, typ|proto.RespFlag, reqID, payload)
}

// respPayload builds the standard response payload: status, detail (empty
// unless StatusInternal), then the message body.
func respPayload(st proto.Status, detail string, body []byte) []byte {
	p := proto.AppendStatus(make([]byte, 0, 3+len(detail)+len(body)), st)
	p = proto.AppendBytes(p, []byte(detail))
	return append(p, body...)
}

// run is the handler goroutine; it owns s.txns and the session lifecycle.
//
//ermia:cancellable
func (s *session) run() {
	defer s.teardown()
	for req := range s.reqs {
		s.dispatch(req)
		if s.srv.draining() && len(s.txns) == 0 && len(s.queries) == 0 && len(s.reqs) == 0 {
			return // graceful drain: nothing owed, nothing open
		}
	}
}

// teardown aborts orphaned transactions through the normal engine abort
// path (releasing their slots and epoch resources), then shuts the
// goroutines down in dependency order.
func (s *session) teardown() {
	for id, ot := range s.txns {
		ot.txn.Abort()
		s.srv.aborts.Add(1)
		s.endTxn(id, ot)
	}
	for id, rq := range s.queries {
		s.endQuery(id, rq, true) // orphaned snapshots release like orphaned txns
	}
	// Unblock a parked reader WITHOUT killing the write side: responses
	// still owed — group-commit acks in particular — must reach the peer
	// before the connection dies.
	if tc, ok := s.nc.(*net.TCPConn); ok {
		tc.CloseRead()
	} else {
		s.nc.SetReadDeadline(time.Unix(1, 0))
	}
	for range s.reqs { // reap queued requests so the reader can exit
	}
	if s.replStop != nil {
		close(s.replStop) // the shipper is tracked in wg; stop it first
	}
	s.wg.Wait() // async commit acks land before the channel closes
	close(s.out)
	<-s.writerDone // writer has flushed everything it will ever flush
	s.nc.Close()
	s.srv.removeSession(s)
}

func (s *session) endTxn(id uint64, ot openTxn) {
	delete(s.txns, id)
	s.openTxns.Add(-1)
	s.srv.openTxns.Add(-1)
	s.srv.releaseSlot(ot.slot)
}

func (s *session) dispatch(req request) {
	if !req.deadline.IsZero() && time.Now().After(req.deadline) {
		s.expire(req)
		return
	}
	d := proto.NewDec(req.payload)
	switch req.typ {
	case proto.MsgBegin:
		s.handleBegin(req, d)
	case proto.MsgGet, proto.MsgInsert, proto.MsgUpdate, proto.MsgDelete:
		s.handleOp(req, d)
	case proto.MsgScan:
		s.handleScan(req, d)
	case proto.MsgCommit:
		s.handleCommit(req, d)
	case proto.MsgAbort:
		s.handleAbort(req, d)
	case proto.MsgCreateTable, proto.MsgOpenTable:
		s.handleTable(req, d)
	case proto.MsgHealth:
		s.handleHealth(req)
	case proto.MsgStats:
		s.handleStats(req)
	case proto.MsgReattach:
		s.handleReattach(req)
	case proto.MsgReplSubscribe:
		s.handleReplSubscribe(req, d)
	case proto.MsgReplAck:
		s.handleReplAck(req, d)
	case proto.MsgPromote:
		s.handlePromote(req)
	case proto.MsgCheckpoint:
		s.handleCheckpoint(req, d)
	case proto.MsgCkptFetch:
		s.handleCkptFetch(req, d)
	case proto.MsgPing:
		s.handlePing(req)
	case proto.MsgQuery:
		s.handleQuery(req, d)
	case proto.MsgQueryRow:
		s.handleQueryRow(req, d)
	case proto.MsgQueryEnd:
		s.handleQueryEnd(req, d)
	case proto.MsgShardPrepare:
		s.handleShardPrepare(req, d)
	case proto.MsgShardDecide:
		s.handleShardDecide(req, d)
	case proto.MsgShardMap:
		s.handleShardMap(req)
	default:
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
	}
}

// expire answers an overdue request with StatusDeadlineExceeded. A request
// that names a transaction has it aborted through the normal path first, so
// its worker slot and engine resources free immediately — an abandoned
// deadline must not leak a slot until teardown.
func (s *session) expire(req request) {
	switch req.typ {
	case proto.MsgGet, proto.MsgInsert, proto.MsgUpdate, proto.MsgDelete,
		proto.MsgScan, proto.MsgCommit, proto.MsgAbort, proto.MsgShardPrepare:
		d := proto.NewDec(req.payload)
		txnID := d.U64()
		if d.Err() == nil {
			if ot, ok := s.txns[txnID]; ok {
				ot.txn.Abort()
				s.srv.aborts.Add(1)
				s.endTxn(txnID, ot)
			}
		}
	case proto.MsgQueryRow, proto.MsgQueryEnd:
		// An abandoned query stream must not pin its snapshot (and worker
		// slot) until teardown; expiry releases it like an abandoned txn.
		d := proto.NewDec(req.payload)
		qid := d.U64()
		if d.Err() == nil {
			if rq, ok := s.queries[qid]; ok {
				s.endQuery(qid, rq, true)
			}
		}
	}
	s.respond(req.typ, req.id, respPayload(proto.StatusDeadlineExceeded, "", nil))
}

// handlePing serves the liveness probe/handshake: the current primary epoch
// and health state, with no worker slot consumed. Clients use it at dial
// time to learn the epoch before issuing work and periodically as a
// keepalive against the server's IdleTimeout.
func (s *session) handlePing(req request) {
	st := engine.Healthy
	if hr, ok := s.srv.db.(engine.HealthReporter); ok {
		st = hr.Health().State
	}
	body := proto.AppendU64(nil, s.srv.epoch.Load())
	body = proto.AppendU8(body, byte(st))
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", body))
}

// handleBegin opens a transaction and parks it in the session's registry
// keyed by wire txn id; Commit/Abort requests finish it and teardown
// aborts whatever the client left open.
//
//ermia:txn-owner session txn registry owns the handle; handleCommit/handleAbort finish it and teardown aborts leftovers
func (s *session) handleBegin(req request, d *proto.Dec) {
	flags := d.U8()
	// Older clients send only the flag byte; newer ones append the highest
	// primary epoch they have observed, and a server behind that epoch is a
	// deposed primary that must fence itself rather than accept the work.
	var cliEpoch uint64
	if len(req.payload) > 1 {
		cliEpoch = d.U64()
	}
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	if cliEpoch > s.srv.epoch.Load() {
		s.respond(req.typ, req.id, respPayload(proto.StatusStaleEpoch, "", nil))
		return
	}
	if s.srv.draining() {
		s.respond(req.typ, req.id, respPayload(proto.StatusShuttingDown, "", nil))
		return
	}
	slot, ok := s.srv.acquireSlot()
	if !ok {
		s.respond(req.typ, req.id, respPayload(proto.StatusOverloaded, "", nil))
		return
	}
	var txn engine.Txn
	readOnly := flags&proto.BeginReadOnly != 0
	if readOnly {
		txn = s.srv.db.BeginReadOnly(slot)
	} else {
		txn = s.srv.db.Begin(slot)
	}
	id := s.srv.nextTxnID.Add(1)
	s.txns[id] = openTxn{txn: txn, slot: slot, readOnly: readOnly}
	s.openTxns.Add(1)
	s.srv.openTxns.Add(1)
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", proto.AppendU64(nil, id)))
}

// lookupTable resolves a table name through the session cache.
func (s *session) lookupTable(name []byte) engine.Table {
	if t, ok := s.tables[string(name)]; ok {
		return t
	}
	t := s.srv.db.OpenTable(string(name))
	if t != nil {
		s.tables[string(name)] = t
	}
	return t
}

func (s *session) handleOp(req request, d *proto.Dec) {
	txnID := d.U64()
	name := d.Bytes()
	key := d.Bytes()
	var value []byte
	if req.typ == proto.MsgInsert || req.typ == proto.MsgUpdate {
		value = d.Bytes()
	}
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	ot, ok := s.txns[txnID]
	if !ok {
		s.respond(req.typ, req.id, respPayload(proto.StatusUnknownTxn, "", nil))
		return
	}
	tbl := s.lookupTable(name)
	if tbl == nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusUnknownTable, "", nil))
		return
	}
	var body []byte
	var err error
	switch req.typ {
	case proto.MsgGet:
		var v []byte
		if v, err = ot.txn.Get(tbl, key); err == nil {
			body = proto.AppendBytes(nil, v)
		}
	case proto.MsgInsert:
		err = ot.txn.Insert(tbl, key, value)
	case proto.MsgUpdate:
		err = ot.txn.Update(tbl, key, value)
	case proto.MsgDelete:
		err = ot.txn.Delete(tbl, key)
	}
	st, detail := proto.StatusOf(err)
	s.respond(req.typ, req.id, respPayload(st, detail, body))
}

func (s *session) handleScan(req request, d *proto.Dec) {
	txnID := d.U64()
	name := d.Bytes()
	limit := d.U32()
	hasHi := d.U8()
	lo := d.Bytes()
	hi := d.Bytes()
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	ot, ok := s.txns[txnID]
	if !ok {
		s.respond(req.typ, req.id, respPayload(proto.StatusUnknownTxn, "", nil))
		return
	}
	tbl := s.lookupTable(name)
	if tbl == nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusUnknownTable, "", nil))
		return
	}
	if limit == 0 || limit > scanPageSize {
		limit = scanPageSize
	}
	var hiArg []byte
	if hasHi != 0 {
		hiArg = hi
	}
	var pairs []byte
	var n uint32
	more := byte(0)
	err := ot.txn.Scan(tbl, lo, hiArg, func(k, v []byte) bool {
		if n >= limit {
			more = 1
			return false
		}
		pairs = proto.AppendBytes(pairs, k)
		pairs = proto.AppendBytes(pairs, v)
		n++
		return true
	})
	st, detail := proto.StatusOf(err)
	var body []byte
	if st == proto.StatusOK {
		body = proto.AppendU32(nil, n)
		body = append(body, pairs...)
		body = proto.AppendU8(body, more)
	}
	s.respond(req.typ, req.id, respPayload(st, detail, body))
}

// handleCommit runs the engine commit synchronously (it is the CC protocol,
// cheap and in-memory) and routes the durability wait by mode. The
// transaction's slot is released as soon as the engine is done with it —
// the durability wait holds no engine resources.
func (s *session) handleCommit(req request, d *proto.Dec) {
	txnID := d.U64()
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	ot, ok := s.txns[txnID]
	if !ok {
		s.respond(req.typ, req.id, respPayload(proto.StatusUnknownTxn, "", nil))
		return
	}
	err := ot.txn.Commit()
	s.endTxn(txnID, ot) // either way the engine transaction is finished
	if err != nil {
		s.srv.aborts.Add(1)
		st, detail := proto.StatusOf(err)
		s.respond(req.typ, req.id, respPayload(st, detail, nil))
		return
	}
	if ot.readOnly {
		// Nothing was logged; there is no durability to wait for (and a
		// degraded log must not poison read-only service).
		s.srv.commits.Add(1)
		s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", nil))
		return
	}
	ep := s.srv.epoch.Load()
	switch s.srv.cfg.Durability {
	case DurabilityNone:
		s.srv.noteCommit(ep)
		s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", nil))
	case DurabilityPerCommit:
		s.wg.Add(1)
		go func(reqID uint64) {
			defer s.wg.Done()
			st, detail := proto.StatusOf(s.srv.syncCommit())
			if st == proto.StatusOK {
				s.srv.noteCommit(ep)
			}
			s.respond(proto.MsgCommit, reqID, respPayload(st, detail, nil))
		}(req.id)
	default: // DurabilityGroup
		ack := commitAck{sess: s, reqID: req.id, epoch: ep, deadline: req.deadline, count: true}
		if s.srv.cfg.SyncRepl {
			// The replica must acknowledge applying the log through this
			// commit's bytes before the client hears OK. Deadline-less
			// commits get the server-side cap so a dead or fenced-off
			// subscriber cannot park the committer forever.
			if log := s.srv.shipLog(); log != nil {
				ack.target = log.CurrentOffset()
			}
			replCap := time.Now().Add(s.srv.cfg.SyncReplWait)
			if ack.deadline.IsZero() || replCap.Before(ack.deadline) {
				ack.deadline = replCap
			}
		}
		s.wg.Add(1)
		s.srv.gc.enqueue(ack)
	}
}

func (s *session) handleAbort(req request, d *proto.Dec) {
	txnID := d.U64()
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	ot, ok := s.txns[txnID]
	if !ok {
		s.respond(req.typ, req.id, respPayload(proto.StatusUnknownTxn, "", nil))
		return
	}
	ot.txn.Abort()
	s.srv.aborts.Add(1)
	s.endTxn(txnID, ot)
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", nil))
}

func (s *session) handleTable(req request, d *proto.Dec) {
	name := d.Bytes()
	if d.Err() != nil || len(name) == 0 {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	if req.typ == proto.MsgCreateTable {
		t := s.srv.db.CreateTable(string(name))
		if t == nil {
			// A replica engine refuses catalog changes; the table must be
			// created on the primary and arrive through the shipped log.
			s.respond(req.typ, req.id, respPayload(proto.StatusReplicaReadOnly, "", nil))
			return
		}
		s.tables[string(name)] = t
		s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", nil))
		return
	}
	if s.lookupTable(name) == nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusNotFound, "", nil))
		return
	}
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", nil))
}

func (s *session) handleHealth(req request) {
	st := engine.HealthStatus{State: engine.Healthy}
	if hr, ok := s.srv.db.(engine.HealthReporter); ok {
		st = hr.Health()
	}
	cause := ""
	if st.Cause != nil {
		cause = st.Cause.Error()
	}
	body := proto.AppendU8(nil, byte(st.State))
	body = proto.AppendBytes(body, []byte(cause))
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", body))
}

func (s *session) handleStats(req request) {
	st := s.srv.Stats()
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", proto.AppendServerStats(nil, &st)))
}

func (s *session) handleReattach(req request) {
	if s.srv.cfg.ReattachFn == nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusInternal, "reattach unsupported on this server", nil))
		return
	}
	report, err := s.srv.cfg.ReattachFn()
	st, detail := proto.StatusOf(err)
	var body []byte
	if st == proto.StatusOK {
		body = proto.AppendBytes(nil, []byte(report))
	}
	s.respond(req.typ, req.id, respPayload(st, detail, body))
}

// handlePromote serves the admin promotion frame: flip a replica engine to
// primary through the wiring the operator supplied.
func (s *session) handlePromote(req request) {
	if s.srv.cfg.PromoteFn == nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusInternal, "promote unsupported on this server", nil))
		return
	}
	report, err := s.srv.cfg.PromoteFn()
	st, detail := proto.StatusOf(err)
	var body []byte
	if st == proto.StatusOK {
		body = proto.AppendBytes(nil, []byte(report))
	}
	s.respond(req.typ, req.id, respPayload(st, detail, body))
}

// ckptChunkSize bounds one CkptFetch response chunk, well under
// proto.MaxPayload with room for the metadata fields.
const ckptChunkSize = 1 << 20

// handleCheckpoint serves the admin Checkpoint frame: take a consistent
// checkpoint now and, when the truncate flag is set, free the sealed log
// segments below it. Runs synchronously on the handler goroutine — the
// engine-side scan does not block writers, only this session's pipeline.
func (s *session) handleCheckpoint(req request, d *proto.Dec) {
	flags := d.U8()
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	ck, ok := s.srv.db.(engine.Checkpointer)
	if !ok {
		s.respond(req.typ, req.id, respPayload(proto.StatusInternal, "checkpoint unsupported by this engine", nil))
		return
	}
	if err := ck.Checkpoint(); err != nil {
		st, detail := proto.StatusOf(err)
		s.respond(req.typ, req.id, respPayload(st, detail, nil))
		return
	}
	var freed uint32
	if flags&proto.CkptTruncate != 0 {
		removed, err := ck.TruncateLog()
		if err != nil {
			st, detail := proto.StatusOf(err)
			s.respond(req.typ, req.id, respPayload(st, detail, nil))
			return
		}
		freed = uint32(len(removed))
	}
	var begin uint64
	if c, err := ck.CheckpointChunk(0, 0); err == nil {
		begin = c.Begin
	}
	s.srv.checkpoints.Add(1)
	body := proto.AppendU64(nil, begin)
	body = proto.AppendU32(body, freed)
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", body))
}

// handleCkptFetch serves one chunk of the newest checkpoint image for
// snapshot-seeded replica bootstrap.
func (s *session) handleCkptFetch(req request, d *proto.Dec) {
	off := d.U64()
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	ck, ok := s.srv.db.(engine.Checkpointer)
	if !ok {
		s.respond(req.typ, req.id, respPayload(proto.StatusNoCheckpoint, "", nil))
		return
	}
	c, err := ck.CheckpointChunk(off, ckptChunkSize)
	if err != nil {
		st, detail := proto.StatusOf(err)
		s.respond(req.typ, req.id, respPayload(st, detail, nil))
		return
	}
	body := proto.AppendBytes(nil, []byte(c.Name))
	body = proto.AppendU64(body, c.Gen)
	body = proto.AppendU64(body, c.Begin)
	body = proto.AppendU64(body, c.Start)
	body = proto.AppendU64(body, c.Total)
	body = proto.AppendBytes(body, c.Data)
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", body))
}

// handleReplSubscribe starts streaming the primary's log to this session.
// The subscribe response goes out first; batch frames then ride the same
// request id with MsgReplBatch|RespFlag until the session ends. The
// shipper goroutine registers in s.wg like an async commit responder, and
// teardown closes replStop before waiting on wg, so the drain order stays
// deadlock-free.
func (s *session) handleReplSubscribe(req request, d *proto.Dec) {
	from := d.U64()
	if d.Err() != nil || s.replStop != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	log := s.srv.shipLog()
	if log == nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusInternal,
			"replication unavailable: server engine has no live log (replica or logless)", nil))
		return
	}
	s.replStop = make(chan struct{})
	s.srv.replSubscribers.Add(1)
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", nil))
	s.wg.Add(1)
	go func(reqID, from uint64, stop chan struct{}) {
		defer s.wg.Done()
		defer s.srv.replSubscribers.Add(-1)
		sh := &repl.Shipper{
			Log:       log,
			Heartbeat: s.srv.cfg.ReplHeartbeat,
			OnIdle: func() error {
				// Liveness beacon on a quiet stream: epoch plus durable
				// horizon. The replica answers with a MsgReplAck, which
				// keeps both directions inside their idle timeouts.
				body := proto.AppendU64(nil, s.srv.epoch.Load())
				body = proto.AppendU64(body, log.DurableOffset())
				s.respond(proto.MsgReplHeartbeat, reqID, respPayload(proto.StatusOK, "", body))
				return nil
			},
		}
		err := sh.Run(from, stop, func(b *proto.ReplBatch) error {
			b.Epoch = s.srv.epoch.Load()
			if n := len(b.Blocks); n > 0 {
				last := &b.Blocks[n-1]
				storeMax(&s.srv.replShipped, last.Off+uint64(last.Size))
			}
			s.srv.replBatches.Add(1)
			s.respond(proto.MsgReplBatch, reqID, respPayload(proto.StatusOK, "", proto.AppendReplBatch(nil, b)))
			return nil
		})
		if err != nil {
			// Tail failure: tell the subscriber why the stream died (its
			// suffix was truncated away, or the log is corrupt).
			st, detail := proto.StatusOf(err)
			s.respond(proto.MsgReplBatch, reqID, respPayload(st, detail, nil))
		}
	}(req.id, from, s.replStop)
}

// handleReplAck records a subscriber's applied watermark.
func (s *session) handleReplAck(req request, d *proto.Dec) {
	wm := d.U64()
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	storeMax(&s.srv.replAcked, wm)
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", nil))
}
