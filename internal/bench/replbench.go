package bench

import (
	"fmt"
	"os"
	"sort"
	"time"

	"ermia/internal/server"
	"ermia/internal/wal"
)

// ReplPoint is one load level of the replication experiment: a primary under
// a write workload with one streaming replica, reporting the replica's
// staleness (lag in log bytes between the primary's durable horizon and the
// replica's applied watermark) and its apply rate.
type ReplPoint struct {
	Writers   int     `json:"writers"`
	TxnPerSec float64 `json:"txn_per_sec"`

	ApplyBlocksPerSec float64 `json:"apply_blocks_per_sec"`
	ApplyMBPerSec     float64 `json:"apply_mb_per_sec"`
	Batches           uint64  `json:"batches"`

	// Lag percentiles over samples taken every few milliseconds while the
	// writers run, in log bytes (0 = replica fully caught up at sample).
	LagP50Bytes uint64 `json:"lag_p50_bytes"`
	LagP99Bytes uint64 `json:"lag_p99_bytes"`
	LagMaxBytes uint64 `json:"lag_max_bytes"`

	// CatchupMicros is how long after the last writer stopped the replica
	// took to reach the primary's final durable horizon.
	CatchupMicros int64 `json:"catchup_us"`
}

// ReplBenchReport is the machine-readable output of the replication
// experiment (written to Params.JSONPath as BENCH_repl.json).
type ReplBenchReport struct {
	Benchmark  string      `json:"benchmark"` // "log-shipping"
	Engine     string      `json:"engine"`
	Storage    string      `json:"storage"` // "dir" for both log and mirror
	DurationMS int64       `json:"duration_ms_per_point"`
	Points     []ReplPoint `json:"points"`
}

// replPoint runs one load level: file-backed primary behind a server,
// file-backed replica streaming from it over loopback TCP, writers doing
// single-insert commits on disjoint keys.
func (p *Params) replPoint(dir string, writers int) (ReplPoint, error) {
	pt := ReplPoint{Writers: writers}
	lp, err := startPrimary(dir+"/primary", wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20},
		server.Config{Workers: writers + 1, MaxConns: writers + 2})
	if err != nil {
		return pt, err
	}
	defer lp.Close()
	r, err := lp.startReplica(dir + "/mirror")
	if err != nil {
		return pt, err
	}
	defer r.Close()
	c, err := lp.dial(writers)
	if err != nil {
		return pt, err
	}
	defer c.Close()

	// Lag sampler: instantaneous staleness as the primary's durable horizon
	// minus the replica's applied watermark, in log bytes. (Sharper than the
	// replica's own Stats().Lag, which only knows the horizon as of the last
	// shipped batch.)
	stopSample := make(chan struct{})
	sampleDone := make(chan []uint64)
	go func() {
		var lags []uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				sampleDone <- lags
				return
			case <-tick.C:
				var lag uint64
				if d, w := lp.db.DurableOffset(), r.Watermark(); d > w {
					lag = d - w
				}
				lags = append(lags, lag)
			}
		}
	}()

	res := Run(Options{Workers: writers, Duration: p.Duration, Exec: insertExec(c, writers)})
	close(stopSample)
	lags := <-sampleDone
	if res.Err != nil {
		return pt, res.Err
	}

	// Catch-up drain: writers stopped, measure how long the replica takes
	// to reach the primary's final durable horizon.
	drainStart := time.Now()
	if err := lp.db.WaitDurable(); err != nil {
		return pt, err
	}
	if _, err := lp.awaitReplica(r); err != nil {
		return pt, err
	}
	pt.CatchupMicros = time.Since(drainStart).Microseconds()

	stats := r.Stats()
	elapsed := p.Duration.Seconds() + time.Since(drainStart).Seconds()
	pt.TxnPerSec = res.Throughput()
	pt.ApplyBlocksPerSec = float64(stats.Blocks) / elapsed
	pt.ApplyMBPerSec = float64(stats.Bytes) / elapsed / (1 << 20)
	pt.Batches = stats.Batches
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if n := len(lags); n > 0 {
		pt.LagP50Bytes = lags[n/2]
		pt.LagP99Bytes = lags[n*99/100]
		pt.LagMaxBytes = lags[n-1]
	}
	return pt, nil
}

// ReplBench is the log-shipping replication experiment: one streaming
// replica behind a loopback primary under an insert workload, measuring
// replica staleness (lag in log bytes) and the replica's apply rate, plus
// the drain time to full catch-up once the writers stop. Both the primary
// log and the replica mirror are file-backed.
func ReplBench(p Params) error {
	p.setDefaults()
	writerGrid := []int{1, p.Threads}
	if p.Full {
		writerGrid = []int{1, 4, p.Threads}
	}

	base, err := os.MkdirTemp("", "ermia-replbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	report := ReplBenchReport{
		Benchmark:  "log-shipping",
		Engine:     EngERMIASI,
		Storage:    "dir",
		DurationMS: p.Duration.Milliseconds(),
	}

	p.printf("%-8s %12s %14s %12s %12s %12s %12s\n",
		"writers", "txn/s", "apply-blk/s", "lag-p50", "lag-p99", "lag-max", "catchup(us)")
	for i, writers := range writerGrid {
		pt, err := p.replPoint(fmt.Sprintf("%s/point-%d", base, i), writers)
		if err != nil {
			return fmt.Errorf("bench: repl w=%d: %w", writers, err)
		}
		report.Points = append(report.Points, pt)
		p.printf("%-8d %12.0f %14.0f %12d %12d %12d %12d\n",
			pt.Writers, pt.TxnPerSec, pt.ApplyBlocksPerSec,
			pt.LagP50Bytes, pt.LagP99Bytes, pt.LagMaxBytes, pt.CatchupMicros)
	}

	last := report.Points[len(report.Points)-1]
	p.printf("# replica staleness at %d writers: p50 %dB, max %dB; catch-up %dus after writers stop\n",
		last.Writers, last.LagP50Bytes, last.LagMaxBytes, last.CatchupMicros)
	return p.writeReport(&report)
}
