package bench

import (
	"fmt"
	"os"
	"strings"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/server"
	"ermia/internal/wal"
)

// The checkpoint experiment quantifies the two claims the checkpoint
// subsystem makes:
//
//  1. Recovery time is bounded by data size, not log history. The same
//     row set is overwritten round after round, so the data stays constant
//     while the log grows; recovery time grows with it — until a
//     checkpoint + truncation collapses the replayable suffix back to
//     data-size proportions.
//  2. A checkpoint-seeded replica reaches the primary's watermark mirroring
//     strictly fewer log bytes than a replica that ships the log from its
//     start, paying a one-time image download instead.

// CkptRecoveryPoint is one recovery measurement of the history-growth phase.
type CkptRecoveryPoint struct {
	Round         int    `json:"round"`
	LogBytes      uint64 `json:"log_bytes"`
	RecoverMicros int64  `json:"recover_us"`
}

// CkptBootstrap compares a from-scratch replica bootstrap with a
// checkpoint-seeded one against the same primary state.
type CkptBootstrap struct {
	ScratchLogBytes      uint64 `json:"scratch_log_bytes"`
	ScratchCatchupMicros int64  `json:"scratch_catchup_us"`
	SeededLogBytes       uint64 `json:"seeded_log_bytes"`
	SeedImageBytes       uint64 `json:"seed_image_bytes"`
	SeededCatchupMicros  int64  `json:"seeded_catchup_us"`
}

// CkptBenchReport is the machine-readable output of the checkpoint
// experiment (written to Params.JSONPath as BENCH_ckpt.json).
type CkptBenchReport struct {
	Benchmark string `json:"benchmark"` // "checkpoint"
	Engine    string `json:"engine"`
	Rows      int    `json:"rows"`

	// Recovery-time phase: one point per overwrite round, then the state
	// after checkpoint + truncation of the final round's log.
	Points        []CkptRecoveryPoint `json:"points"`
	AfterTruncate CkptRecoveryPoint   `json:"after_truncate"`
	SegmentsFreed int                 `json:"segments_freed"`

	Bootstrap CkptBootstrap `json:"bootstrap"`
}

// ckptWAL: segments small enough that every phase seals several, so
// truncation has something to unlink.
var ckptWAL = wal.Config{SegmentSize: 256 << 10, BufferSize: 64 << 10}

// withCkptDB opens (core.Open) or recovers (core.Recover) the DB logging
// into dir, hands it to fn, and closes it.
func withCkptDB(dir string, open func(core.Config) (*core.DB, error), fn func(*core.DB) error) error {
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		return err
	}
	cfg := ckptWAL
	cfg.Storage = st
	return using(open(core.Config{WAL: cfg}))(fn)
}

// ckptRecoveryPoint measures the log size in dir and how long a recovery
// from it takes.
func ckptRecoveryPoint(dir string, round int) (CkptRecoveryPoint, error) {
	pt := CkptRecoveryPoint{Round: round}
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		return pt, err
	}
	names, err := st.List()
	if err != nil {
		return pt, err
	}
	for _, n := range names {
		if !strings.HasPrefix(n, "log-") {
			continue
		}
		f, err := st.Open(n)
		if err != nil {
			return pt, err
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			return pt, err
		}
		pt.LogBytes += uint64(size)
	}
	start := time.Now()
	err = withCkptDB(dir, core.Recover, func(*core.DB) error {
		pt.RecoverMicros = time.Since(start).Microseconds()
		return nil
	})
	return pt, err
}

// ckptOverwrite upserts rows r0..r(n-1), eight per transaction.
func ckptOverwrite(db *core.DB, tbl engine.Table, round, n int) error {
	value := []byte(fmt.Sprintf("round-%03d-", round) + strings.Repeat("v", 90))
	for i := 0; i < n; {
		txn := db.BeginTxn(0)
		for j := 0; j < 8 && i < n; j, i = j+1, i+1 {
			key := []byte(fmt.Sprintf("r%08d", i))
			var err error
			if round == 0 {
				err = txn.Insert(tbl, key, value)
			} else {
				err = txn.Update(tbl, key, value)
			}
			if err != nil {
				txn.Abort()
				return err
			}
		}
		if err := txn.Commit(); err != nil {
			return err
		}
	}
	return db.WaitDurable()
}

// ckptRecoveryPhase measures recovery time as the log grows over rounds of
// overwrites of a constant row set, then after checkpoint + truncation.
func (p *Params) ckptRecoveryPhase(dir string, rows, rounds int, report *CkptBenchReport) error {
	for round := 0; round < rounds; round++ {
		open := core.Recover
		if round == 0 {
			open = core.Open
		}
		err := withCkptDB(dir, open, func(db *core.DB) error {
			tbl := db.OpenTable("bench")
			if tbl == nil {
				tbl = db.CreateTable("bench")
			}
			return ckptOverwrite(db, tbl, round, rows)
		})
		if err != nil {
			return err
		}
		pt, err := ckptRecoveryPoint(dir, round)
		if err != nil {
			return err
		}
		report.Points = append(report.Points, pt)
		p.printf("%-10d %14d %14d\n", pt.Round, pt.LogBytes, pt.RecoverMicros)
	}

	// Checkpoint + truncate the accumulated history, then measure again: the
	// replayable suffix is now proportional to the data, not the history.
	err := withCkptDB(dir, core.Recover, func(db *core.DB) error {
		if err := db.Checkpoint(); err != nil {
			return err
		}
		removed, err := db.TruncateLog()
		report.SegmentsFreed = len(removed)
		return err
	})
	if err != nil {
		return err
	}
	if report.AfterTruncate, err = ckptRecoveryPoint(dir, rounds); err != nil {
		return err
	}
	p.printf("%-10s %14d %14d   (%d segments freed)\n",
		"truncated", report.AfterTruncate.LogBytes, report.AfterTruncate.RecoverMicros, report.SegmentsFreed)
	return nil
}

// ckptBootstrapPhase compares replica bootstrap costs against one primary:
// a scratch replica mirrors the full log; after checkpoint + truncation a
// second replica seeds from the image and mirrors only the suffix.
func (p *Params) ckptBootstrapPhase(dir string, rows int, report *CkptBenchReport) error {
	lp, err := startPrimary(dir+"/primary", ckptWAL, server.Config{})
	if err != nil {
		return err
	}
	defer lp.Close()
	db := lp.db
	tbl := db.CreateTable("bench")
	if err := ckptOverwrite(db, tbl, 0, rows); err != nil {
		return err
	}

	scratch, err := lp.startReplica(dir + "/scratch")
	if err != nil {
		return err
	}
	defer scratch.Close()
	elapsed, err := lp.awaitReplica(scratch)
	if err != nil {
		return err
	}
	report.Bootstrap.ScratchLogBytes = scratch.Stats().Bytes
	report.Bootstrap.ScratchCatchupMicros = elapsed.Microseconds()

	if err := db.Checkpoint(); err != nil {
		return err
	}
	if _, err := db.TruncateLog(); err != nil {
		return err
	}
	// A short tail of fresh writes past the checkpoint, so the seeded
	// replica has a real log suffix to mirror.
	if err := ckptOverwrite(db, tbl, 1, rows/10); err != nil {
		return err
	}
	if _, err = lp.awaitReplica(scratch); err != nil {
		return err
	}

	seeded, err := lp.startReplica(dir + "/seeded")
	if err != nil {
		return err
	}
	defer seeded.Close()
	if elapsed, err = lp.awaitReplica(seeded); err != nil {
		return err
	}
	rs := seeded.Stats()
	if rs.Seeds == 0 {
		return fmt.Errorf("bench: seeded replica bootstrapped without a checkpoint seed")
	}
	if rs.Bytes >= report.Bootstrap.ScratchLogBytes {
		return fmt.Errorf("bench: seeded replica mirrored %d log bytes, scratch mirrored %d; seeding must read strictly less",
			rs.Bytes, report.Bootstrap.ScratchLogBytes)
	}
	report.Bootstrap.SeededLogBytes = rs.Bytes
	report.Bootstrap.SeedImageBytes = rs.SeedBytes
	report.Bootstrap.SeededCatchupMicros = elapsed.Microseconds()

	b := report.Bootstrap
	p.printf("%-10s %14d %14d\n", "scratch", b.ScratchLogBytes, b.ScratchCatchupMicros)
	p.printf("%-10s %14d %14d   (image %dB)\n", "seeded", b.SeededLogBytes, b.SeededCatchupMicros, b.SeedImageBytes)
	return nil
}

// CkptBench is the checkpoint/truncation experiment; see the file comment.
func CkptBench(p Params) error {
	p.setDefaults()
	rows := p.MicroRows
	rounds := 3
	if p.Full {
		rounds = 5
	}

	base, err := os.MkdirTemp("", "ermia-ckptbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	report := CkptBenchReport{Benchmark: "checkpoint", Engine: EngERMIASI, Rows: rows}

	p.printf("# recovery time vs log history (%d rows overwritten per round)\n", rows)
	p.printf("%-10s %14s %14s\n", "round", "log-bytes", "recover(us)")
	if err := p.ckptRecoveryPhase(base+"/recovery", rows, rounds, &report); err != nil {
		return fmt.Errorf("bench: ckpt recovery phase: %w", err)
	}

	p.printf("# replica bootstrap: scratch mirror vs checkpoint seed\n")
	p.printf("%-10s %14s %14s\n", "replica", "log-bytes", "catchup(us)")
	if err := p.ckptBootstrapPhase(base+"/bootstrap", rows, &report); err != nil {
		return fmt.Errorf("bench: ckpt bootstrap phase: %w", err)
	}

	last := report.Points[len(report.Points)-1]
	p.printf("# recovery after truncation: %dus over %dB of log (vs %dus over %dB untruncated)\n",
		report.AfterTruncate.RecoverMicros, report.AfterTruncate.LogBytes,
		last.RecoverMicros, last.LogBytes)
	return p.writeReport(&report)
}
