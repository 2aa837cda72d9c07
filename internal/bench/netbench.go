package bench

import (
	"fmt"
	"os"

	"ermia/internal/server"
	"ermia/internal/wal"
)

// ServerPoint is one cell of the network throughput grid: a durability
// mode at a (connections × pipelining depth) load level.
type ServerPoint struct {
	Mode      string  `json:"mode"`    // "group" or "percommit"
	Clients   int     `json:"clients"` // TCP connections
	Depth     int     `json:"depth"`   // concurrent transactions per connection
	TxnPerSec float64 `json:"txn_per_sec"`
	P50Micros int64   `json:"p50_us"`
	P99Micros int64   `json:"p99_us"`
	Commits   uint64  `json:"commits"`
	Aborts    uint64  `json:"aborts"`
	// Batches is how many WaitDurable wakeups the group committer used for
	// Commits acknowledgments (0 in percommit mode, which pays one device
	// sync per commit by construction).
	Batches uint64 `json:"group_batches,omitempty"`
}

// ServerBenchReport is the machine-readable output of the server experiment
// (written to Params.JSONPath as BENCH_server.json).
type ServerBenchReport struct {
	Benchmark  string        `json:"benchmark"` // "network-server"
	Engine     string        `json:"engine"`
	Storage    string        `json:"storage"` // "dir" (file-backed)
	DurationMS int64         `json:"duration_ms_per_point"`
	Points     []ServerPoint `json:"points"`
	// SpeedupMax is the best group/percommit throughput ratio observed at
	// matching load levels — the amortization headline.
	SpeedupMax float64 `json:"group_speedup_max"`
}

// serverPoint runs one grid cell: a fresh file-backed engine behind a fresh
// server, hammered by clients×depth workers doing single-insert commits on
// disjoint keys (no CC conflicts, so the commit/durability path dominates).
func (p *Params) serverPoint(dir string, mode server.Durability, clients, depth int) (ServerPoint, error) {
	pt := ServerPoint{Mode: mode.String(), Clients: clients, Depth: depth}
	workers := clients * depth
	lp, err := startPrimary(dir, wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20},
		server.Config{Durability: mode, Workers: workers + 1, MaxConns: clients + 1})
	if err != nil {
		return pt, err
	}
	defer lp.Close()
	c, err := lp.dial(clients)
	if err != nil {
		return pt, err
	}
	defer c.Close()

	// Each connection carries exactly depth concurrent transactions: that
	// is the pipelining level the point is measuring.
	res := Run(Options{Workers: workers, Duration: p.Duration, Exec: insertExec(c, workers)})
	if res.Err != nil {
		return pt, res.Err
	}
	ks := res.Kinds["insert"]
	pt.TxnPerSec = res.Throughput()
	pt.P50Micros = ks.Percentile(0.5).Microseconds()
	pt.P99Micros = ks.Percentile(0.99).Microseconds()
	pt.Commits = ks.Commits
	pt.Aborts = ks.Aborts
	if mode == server.DurabilityGroup {
		pt.Batches = lp.srv.Stats().GroupBatches
	}
	return pt, nil
}

// ServerBench is the network service layer experiment: cross-connection
// group commit versus the naive one-device-sync-per-commit baseline, over
// loopback TCP with file-backed storage, across a grid of connection counts
// and pipelining depths. Group commit's throughput advantage grows with
// load because one WaitDurable wakeup acknowledges every commit that
// arrived during the previous device sync.
func ServerBench(p Params) error {
	p.setDefaults()
	clientGrid := []int{1, 4, 8}
	depthGrid := []int{1, 4}
	if p.Full {
		clientGrid = []int{1, 4, 8, 16}
		depthGrid = []int{1, 4, 16}
	}

	base, err := os.MkdirTemp("", "ermia-netbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	report := ServerBenchReport{
		Benchmark:  "network-server",
		Engine:     EngERMIASI,
		Storage:    "dir",
		DurationMS: p.Duration.Milliseconds(),
	}
	perCommit := map[[2]int]float64{}

	p.printf("%-10s %8s %6s %12s %10s %10s\n",
		"mode", "clients", "depth", "txn/s", "p50(us)", "p99(us)")
	for i, mode := range []server.Durability{server.DurabilityPerCommit, server.DurabilityGroup} {
		for _, clients := range clientGrid {
			for _, depth := range depthGrid {
				dir := fmt.Sprintf("%s/point-%d-%d-%d", base, i, clients, depth)
				pt, err := p.serverPoint(dir, mode, clients, depth)
				if err != nil {
					return fmt.Errorf("bench: server %s c=%d d=%d: %w", mode, clients, depth, err)
				}
				report.Points = append(report.Points, pt)
				p.printf("%-10s %8d %6d %12.0f %10d %10d\n",
					pt.Mode, pt.Clients, pt.Depth, pt.TxnPerSec, pt.P50Micros, pt.P99Micros)
				if mode == server.DurabilityPerCommit {
					perCommit[[2]int{clients, depth}] = pt.TxnPerSec
				} else if naive := perCommit[[2]int{clients, depth}]; naive > 0 {
					if s := pt.TxnPerSec / naive; s > report.SpeedupMax {
						report.SpeedupMax = s
					}
				}
			}
		}
	}
	p.printf("# group commit best speedup over per-commit sync: %.2fx\n", report.SpeedupMax)
	return p.writeReport(&report)
}
