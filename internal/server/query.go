package server

import (
	"errors"
	"time"

	"ermia/internal/engine"
	"ermia/internal/proto"
	"ermia/internal/query"
)

// Analytical queries over the wire. MsgQuery validates a plan and pins a
// read-only snapshot transaction; MsgQueryRow pulls result chunks;
// MsgQueryEnd cancels. The stream is pull-based: each chunk is one
// request/response exchange on the session's ordinary pipeline, so
// backpressure is the client's own pull rate, each pull carries its own
// frame deadline, and the volcano tree advances lazily on the handler
// goroutine — a long analytical query occupies the server only while a
// chunk is actually being produced, and its snapshot never blocks writers
// on other sessions. On a replica engine the same path serves snapshot
// queries at the replica's replay watermark with no extra wiring.

// queryChunkRows and queryChunkBytes cap one MsgQueryRow response body.
// Whichever limit is hit first ends the chunk.
const (
	queryChunkRows  = 256
	queryChunkBytes = 256 << 10
)

// runningQuery is one open query owned by a session's handler goroutine:
// the pinned snapshot transaction, its worker slot, and the iterator tree.
type runningQuery struct {
	txn  engine.Txn
	slot int
	it   query.Rows
	// deadline is the current pull's expiry (zero = none), refreshed by
	// every MsgQueryRow so the executor's cancel poll can stop a chunk
	// mid-production.
	deadline time.Time
}

//ermia:txn-owner runningQuery owns the snapshot txn; endQuery aborts it on completion, cancel, or session teardown
func (s *session) handleQuery(req request, d *proto.Dec) {
	planBytes := d.Bytes()
	maxRows := d.U32()
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	if s.srv.draining() {
		s.respond(req.typ, req.id, respPayload(proto.StatusShuttingDown, "", nil))
		return
	}
	plan, err := query.DecodePlan(planBytes)
	if err == nil {
		err = plan.Validate()
	}
	if err != nil {
		st, detail := proto.StatusOf(err)
		s.respond(req.typ, req.id, respPayload(st, detail, nil))
		return
	}
	slot, ok := s.srv.acquireSlot()
	if !ok {
		s.respond(req.typ, req.id, respPayload(proto.StatusOverloaded, "", nil))
		return
	}
	effMax := s.srv.cfg.QueryMaxRows
	if maxRows > 0 && int(maxRows) < effMax {
		effMax = int(maxRows)
	}
	txn := s.srv.db.BeginReadOnly(slot)
	rq := &runningQuery{txn: txn, slot: slot}
	it, err := query.Run(txn, func(name string) engine.Table {
		return s.lookupTable([]byte(name))
	}, plan, query.Options{
		MaxRows: effMax,
		// Polled between row batches: a server that started draining kills
		// the query (its session is on the way out), and a pull whose frame
		// deadline lapsed stops producing work nobody is waiting for.
		Cancel: func() bool {
			if s.srv.draining() {
				return true
			}
			return !rq.deadline.IsZero() && time.Now().After(rq.deadline)
		},
	})
	if err != nil {
		txn.Abort()
		s.srv.releaseSlot(slot)
		st, detail := proto.StatusOf(err)
		s.respond(req.typ, req.id, respPayload(st, detail, nil))
		return
	}
	rq.it = it
	id := s.srv.nextQueryID.Add(1)
	if s.queries == nil {
		s.queries = make(map[uint64]*runningQuery)
	}
	s.queries[id] = rq
	s.openQueries.Add(1)
	s.srv.queriesActive.Add(1)
	s.srv.queriesTotal.Add(1)
	body := proto.AppendU64(nil, id)
	body = proto.AppendU32(body, uint32(plan.Arity()))
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", body))
}

func (s *session) handleQueryRow(req request, d *proto.Dec) {
	id := d.U64()
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	rq, ok := s.queries[id]
	if !ok {
		s.respond(req.typ, req.id, respPayload(proto.StatusUnknownTxn, "", nil))
		return
	}
	rq.deadline = req.deadline
	rows := make([]byte, 0, 4<<10)
	n := 0
	done := false
	for n < queryChunkRows && len(rows) < queryChunkBytes {
		row, err := rq.it.Next()
		if err != nil {
			// The error frame carries no rows; the partial chunk is
			// discarded with the query.
			s.endQuery(id, rq, true)
			st, detail := proto.StatusOf(err)
			if errors.Is(err, engine.ErrQueryCancelled) &&
				!rq.deadline.IsZero() && time.Now().After(rq.deadline) {
				// The executor's cancel poll fired because this pull's
				// deadline lapsed, not because anyone asked to cancel.
				st, detail = proto.StatusDeadlineExceeded, ""
			}
			s.respond(req.typ, req.id, respPayload(st, detail, nil))
			return
		}
		if row == nil {
			done = true
			s.endQuery(id, rq, false)
			break
		}
		rows = query.AppendRow(rows, row)
		n++
		s.srv.queryRows.Add(1)
	}
	body := make([]byte, 0, 5+len(rows))
	if done {
		body = proto.AppendU8(body, 1)
	} else {
		body = proto.AppendU8(body, 0)
	}
	body = proto.AppendU32(body, uint32(n))
	body = append(body, rows...)
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", body))
}

func (s *session) handleQueryEnd(req request, d *proto.Dec) {
	id := d.U64()
	if d.Err() != nil {
		s.respond(req.typ, req.id, respPayload(proto.StatusBadRequest, "", nil))
		return
	}
	// Idempotent: cancelling a finished or unknown query is a no-op.
	if rq, ok := s.queries[id]; ok {
		s.endQuery(id, rq, true)
	}
	s.respond(req.typ, req.id, respPayload(proto.StatusOK, "", nil))
}

// endQuery releases one query's snapshot transaction and worker slot.
// cancelled marks terminations other than normal stream completion
// (MsgQueryEnd, pull deadline, drain, session teardown) for the stats
// counters.
func (s *session) endQuery(id uint64, rq *runningQuery, cancelled bool) {
	delete(s.queries, id)
	s.openQueries.Add(-1)
	s.srv.queriesActive.Add(-1)
	if cancelled {
		s.srv.queryCancels.Add(1)
	}
	rq.it.Close()
	rq.txn.Abort()
	s.srv.releaseSlot(rq.slot)
}
