package silo

import (
	"fmt"

	"ermia/internal/engine"
	"ermia/internal/wal"
)

// Fault containment mirrors the core engine's: a value-log device failure
// moves the DB to Degraded instead of silently dropping committed work (the
// seed's appendLog discarded WriteAt errors). While degraded, snapshot and
// OCC read-only transactions keep committing from the in-memory records;
// transactions that write are refused with engine.ErrReadOnlyDegraded. Every
// entry the dead device refused is kept, with its assigned offset, in a
// pending list so Reattach can rewrite it and lose nothing.

// pendingEntry is a value-log entry the device refused: its bytes and the
// file offset the log sequence already assigned to it.
type pendingEntry struct {
	off int64
	buf []byte
}

// ReattachReport summarizes a successful Reattach.
type ReattachReport struct {
	// Rewritten counts pending log entries written to the healed device.
	Rewritten int
	// Bytes is their total size.
	Bytes int64
	// NewDevice reports whether a replacement Storage was attached.
	NewDevice bool
}

// Health implements engine.HealthReporter.
func (db *DB) Health() engine.HealthStatus {
	h := engine.HealthStatus{State: engine.HealthState(db.health.Load())}
	if p := db.healthCause.Load(); p != nil {
		h.Cause = *p
	}
	return h
}

// noteLogErr records the first value-log device error and transitions
// Healthy → Degraded. Later errors keep the original cause.
func (db *DB) noteLogErr(err error) {
	if err == nil {
		return
	}
	e := err
	db.healthCause.CompareAndSwap(nil, &e)
	db.health.CompareAndSwap(int32(engine.Healthy), int32(engine.Degraded))
}

// checkWritable gates the write path on health: reads always proceed, but a
// degraded DB refuses new writes fast, before they touch any record.
func (t *Txn) checkWritable() error {
	switch engine.HealthState(t.db.health.Load()) {
	case engine.Healthy:
		return nil
	case engine.Degraded:
		return engine.ErrReadOnlyDegraded
	default:
		return wal.ErrClosed
	}
}

// SyncLog forces the value log to disk — the epoch ticker's group-commit
// action on demand (tests and benchmarks run with long epochs).
func (db *DB) SyncLog() error {
	db.logMu.Lock()
	defer db.logMu.Unlock()
	if db.health.Load() != int32(engine.Healthy) {
		if p := db.healthCause.Load(); p != nil {
			return *p
		}
		return wal.ErrClosed
	}
	if err := db.logFile.Sync(); err != nil {
		db.noteLogErr(err)
		return err
	}
	return nil
}

// Reattach recovers a degraded DB: pending value-log entries are rewritten
// at their assigned offsets — on the healed device, or on a replacement
// Storage that carries the durable image of the old one — synced, and the DB
// returns to Healthy. Committed transactions whose entries were pending are
// thereby made durable; nothing previously durable is touched.
func (db *DB) Reattach(st wal.Storage) (ReattachReport, error) {
	var rep ReattachReport
	db.logMu.Lock()
	defer db.logMu.Unlock()
	switch engine.HealthState(db.health.Load()) {
	case engine.Failed:
		return rep, fmt.Errorf("silo: reattach: %w", wal.ErrClosed)
	case engine.Healthy:
		return rep, wal.ErrNotDegraded
	}
	file := db.logFile
	if st != nil {
		f, err := st.Open(logName)
		if err != nil {
			if f, err = st.Create(logName); err != nil {
				return rep, fmt.Errorf("silo: reattach: %w", err)
			}
		}
		file = f
		rep.NewDevice = true
	}
	for _, p := range db.pending {
		if _, err := file.WriteAt(p.buf, p.off); err != nil {
			return rep, fmt.Errorf("silo: reattach rewrite: %w", err)
		}
		rep.Rewritten++
		rep.Bytes += int64(len(p.buf))
	}
	if err := file.Sync(); err != nil {
		return rep, fmt.Errorf("silo: reattach sync: %w", err)
	}
	if st != nil {
		db.logFile.Close()
		db.logFile = file
		db.cfg.Storage = st
	}
	db.pending = nil
	db.healthCause.Store(nil)
	db.health.Store(int32(engine.Healthy))
	return rep, nil
}

var _ engine.HealthReporter = (*DB)(nil)
