package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"ermia/internal/mvcc"
	"ermia/internal/wal"
)

// Recover rebuilds a DB from cfg.WAL.Storage (§3.7). The process is the
// same after a clean shutdown and after a crash: find the most recent
// durable checkpoint (if any), restore the OID arrays and indexes from it,
// then roll forward by scanning the log after the checkpoint and replaying
// the operations of committed transactions. The log can be truncated at the
// first hole without losing committed work, because it contains only
// committed state.
func Recover(cfg Config) (*DB, error) {
	db, pass1, _, err := recoverState(cfg, false)
	if err != nil {
		return nil, err
	}
	// Resume the log at the recovered horizon and restart background work.
	log, err := wal.Open(cfg.WAL, pass1)
	if err != nil {
		return nil, err
	}
	db.log.Store(log)
	db.startGC()
	return db, nil
}

// recoverState is the shared restore path behind Recover and OpenReplica:
// scan the log in cfg.WAL.Storage, restore the newest verifiable
// checkpoint, and roll forward through an Applier. It returns the rebuilt
// DB (no log manager installed, no GC running), the scan result, and the
// checkpoint-begin offset the replay skipped to. replica relaxes the
// acknowledgment gate below: a seeded blob may legitimately reach past the
// mirrored log suffix.
func recoverState(cfg Config, replica bool) (*DB, *wal.RecoverResult, uint64, error) {
	if cfg.WAL.Storage == nil {
		return nil, nil, 0, fmt.Errorf("core: recovery requires explicit WAL storage")
	}
	st := cfg.WAL.Storage

	// Pass 1: locate segments and every checkpoint-end record, oldest first.
	var ckptNames []string
	var ckptBegin uint64
	pass1, err := wal.Recover(st, func(b wal.Block) error {
		if b.Type == wal.BlockCheckpointEnd {
			ckptNames = append(ckptNames, string(b.Payload))
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: log scan: %w", err)
	}

	db := newDB(cfg, nil)

	// Restore the newest checkpoint whose blob verifies. Candidates come
	// from two places: the storage listing (a published v2 blob is
	// self-describing, so it counts even when the crash ate its
	// checkpoint-end record — rename made it complete before the end record
	// existed) and the end-record names from pass 1 (how pre-generation
	// blobs are located). A torn or bit-flipped blob (checksum trailer
	// mismatch) or a missing file falls back to the previous checkpoint —
	// recovery then replays a longer log suffix, trading time for
	// correctness. A blob that verifies but fails to decode is a software
	// bug, not device damage, and surfaces as an error.
	type ckptCand struct {
		name       string
		begin, gen uint64
	}
	seen := make(map[string]bool)
	var cands []ckptCand
	addCand := func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		if begin, gen, ok := parseCheckpointName(name); ok {
			cands = append(cands, ckptCand{name, begin, gen})
		}
	}
	if names, lerr := st.List(); lerr == nil {
		for _, n := range names {
			addCand(n)
		}
	}
	for _, n := range ckptNames {
		addCand(n)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].begin != cands[j].begin {
			return cands[i].begin < cands[j].begin
		}
		return cands[i].gen < cands[j].gen
	})
	for i := len(cands) - 1; i >= 0; i-- {
		c := cands[i]
		if !replica && c.begin > pass1.NextOffset {
			// The blob's begin record is past the durable log: the crash ate
			// log blocks the scan had already covered. Its extra commits were
			// never acknowledged (their blocks were not durable), and adopting
			// them would put versions above the resumed log clock — invisible
			// to every reader and colliding with reissued offsets. Fall back.
			// (On a replica the gate does not apply: a snapshot-seeded blob
			// reaches past the mirrored suffix by design — its commits were
			// acknowledged on the primary, the watermark becomes its begin
			// offset, and the missing suffix is re-shipped by the stream.)
			continue
		}
		body, rerr := readCheckpointBlob(st, c.name)
		if rerr != nil {
			continue
		}
		gen, begin, payload, v2, herr := parseCheckpointHeader(body)
		if herr != nil || (v2 && begin != c.begin) {
			continue // damaged or future-format header: fall back
		}
		if !v2 {
			gen, begin = c.gen, c.begin
		}
		if err := db.loadCheckpoint(payload); err != nil {
			return nil, nil, 0, err
		}
		ckptBegin = begin
		db.setLastCheckpoint(CheckpointInfo{Name: c.name, Gen: gen, Begin: begin})
		break
	}

	// Pass 2: roll forward from the checkpoint (or the log's start) through
	// the same Applier a replica uses for streaming replay.
	ap := db.NewApplier(st, pass1.Segments, ckptBegin)
	_, err = wal.Recover(st, ap.Apply)
	ap.Close()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: replay: %w", err)
	}
	return db, pass1, ckptBegin, nil
}

// readCheckpointBlob reads and verifies a checkpoint blob, returning its
// content without the FNV-1a trailer.
func readCheckpointBlob(st wal.Storage, name string) ([]byte, error) {
	f, err := st.Open(name)
	if err != nil {
		return nil, fmt.Errorf("core: open checkpoint: %w", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < 4 {
		return nil, fmt.Errorf("core: checkpoint %s truncated", name)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	body := buf[:size-4]
	if got, want := wal.Checksum(body), binary.LittleEndian.Uint32(buf[size-4:]); got != want {
		return nil, fmt.Errorf("core: checkpoint %s checksum mismatch: %#x != %#x", name, got, want)
	}
	return body, nil
}

// applyCommitBlock replays one committed transaction: its overflow chain
// (oldest first), then the commit block's own records.
func (db *DB) applyCommitBlock(st wal.Storage, segs []wal.SegmentMeta, b wal.Block) error {
	if b.Prev != 0 {
		// Collect the backward-linked overflow chain and apply in order.
		var chain [][]byte
		prev := b.Prev
		for prev != 0 {
			ob, err := wal.ReadBlock(st, segs, walLSNFor(segs, prev))
			if err != nil {
				return fmt.Errorf("core: overflow chain at %#x: %w", prev, err)
			}
			chain = append(chain, ob.Payload)
			prev = ob.Prev
		}
		for i := len(chain) - 1; i >= 0; i-- {
			if err := db.applyRecords(chain[i], b.LSN.Offset()); err != nil {
				return err
			}
		}
	}
	return db.applyRecords(b.Payload, b.LSN.Offset())
}

// walLSNFor rebuilds the LSN for a raw offset using the segment metadata.
func walLSNFor(segs []wal.SegmentMeta, off uint64) wal.LSN {
	for _, s := range segs {
		if off >= s.Start && off < s.End {
			return wal.MakeLSN(off, s.Num)
		}
	}
	return wal.MakeLSN(off, 0)
}

// applyRecords replays the records of one committed transaction, stamping
// every installed version with the transaction's commit offset.
func (db *DB) applyRecords(payload []byte, cstamp uint64) error {
	return decodeRecords(payload, func(r logRecord) error {
		switch r.kind {
		case recCreateTable:
			db.createTableRecovered(r.table, string(r.key))
			return nil
		case recCreateIndex:
			if db.createSecondaryRecovered(r.index, r.table, string(r.key)) == nil {
				return fmt.Errorf("core: index %q references unknown table %d", r.key, r.table)
			}
			return nil
		}
		t := db.tableByID(r.table)
		if t == nil {
			return fmt.Errorf("core: record for unknown table %d", r.table)
		}
		if !mvcc.ValidOID(oidOf(r)) {
			return fmt.Errorf("core: record with invalid OID %d", r.oid)
		}
		switch r.kind {
		case recInsert, recInsertSec:
			db.applyVersion(t, oidOf(r), cloneKey(r.key), cloneKey(r.val), cstamp, false, true)
			for _, s := range r.sec {
				si := db.secondaryByID(s.index)
				if si == nil {
					return fmt.Errorf("core: record for unknown secondary index %d", s.index)
				}
				si.idx.InsertIfAbsent(cloneKey(s.key), oidOf(r))
			}
		case recUpdate:
			db.applyVersion(t, oidOf(r), nil, cloneKey(r.val), cstamp, false, false)
		case recDelete:
			db.applyVersion(t, oidOf(r), nil, nil, cstamp, true, false)
		}
		return nil
	})
}

func oidOf(r logRecord) mvcc.OID { return mvcc.OID(r.oid) }
