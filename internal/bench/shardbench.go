package bench

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/core"
	"ermia/internal/server"
	"ermia/internal/shard"
	"ermia/internal/tpcc"
	"ermia/internal/wal"
)

// ShardPoint is one cell of the sharding experiment: a shard count at a
// cross-partition percentage, running TPC-C through the shard router.
type ShardPoint struct {
	Shards    int     `json:"shards"`
	RemotePct int     `json:"remote_pct"` // cross-partition probability (both knobs)
	TxnPerSec float64 `json:"txn_per_sec"`
	Commits   uint64  `json:"commits"`
	Aborts    uint64  `json:"aborts"`
	// FastCommits/CrossCommits split the router's committed read-write
	// transactions by path: single-shard fast path vs two-phase commit.
	FastCommits  uint64  `json:"fast_commits"`
	CrossCommits uint64  `json:"cross_commits"`
	CrossRatio   float64 `json:"cross_ratio"`
}

// ShardBenchReport is the machine-readable output of the shard experiment
// (BENCH_shard.json).
type ShardBenchReport struct {
	Benchmark  string       `json:"benchmark"` // "shard-tpcc"
	Engine     string       `json:"engine"`
	Warehouses int          `json:"warehouses"`
	Threads    int          `json:"threads"`
	DurationMS int64        `json:"duration_ms_per_point"`
	Points     []ShardPoint `json:"points"`
	// LocalSpeedup is throughput(3 shards) / throughput(1 shard) on the
	// fully partition-local mix — the horizontal-scaling headline. Each
	// shard runs synchronous per-commit durability against its own
	// bandwidth-limited commit device, so per-shard capacity is fixed and
	// the ratio isolates what sharding itself buys: more shards means
	// more commit devices working in parallel.
	LocalSpeedup float64 `json:"local_speedup_3shard"`
	// DeviceKBPerSec is the modeled commit-device sync bandwidth.
	DeviceKBPerSec int64 `json:"device_kb_per_sec"`
}

// tpccShardRules is the TPC-C placement policy: every warehouse-scoped
// table keys on a big-endian warehouse id in its first four bytes, so a
// 4-byte prefix hash co-locates a whole warehouse (making home-warehouse
// transactions single-shard); the read-mostly ITEM and SUPPLIER catalogs
// are replicated to every shard so NewOrder's item lookups never leave the
// transaction's home shard.
func tpccShardRules() []shard.TableRule {
	rules := []shard.TableRule{
		{Table: tpcc.TableItem, Replicated: true},
		{Table: tpcc.TableSupplier, Replicated: true},
	}
	for _, t := range []string{
		tpcc.TableWarehouse, tpcc.TableDistrict, tpcc.TableCustomer,
		tpcc.TableCustName, tpcc.TableHistory, tpcc.TableNewOrder,
		tpcc.TableOrder, tpcc.TableOrderCust, tpcc.TableOrderLine,
		tpcc.TableStock,
	} {
		rules = append(rules, shard.TableRule{Table: t, PrefixLen: 4})
	}
	return rules
}

// balancedWarehouses picks the smallest warehouse count >= min whose hash
// placement over `shards` shards is balanced (per-shard counts within one
// of each other), so every shard carries load and the scaling measurement
// is not at the mercy of an unlucky hash draw. Placement is a pure
// function of the counts, so the choice is deterministic.
func balancedWarehouses(min, shards int) int {
	if shards <= 1 {
		return min
	}
	rule := shard.TableRule{PrefixLen: 4}
	for w := min; w < min+64; w++ {
		m := &shard.Map{Version: 1}
		for i := 0; i < shards; i++ {
			m.Shards = append(m.Shards, shard.ShardInfo{Addr: "x"})
		}
		counts := make([]int, shards)
		for id := 1; id <= w; id++ {
			counts[m.ShardOf(rule, tpcc.WarehouseKey(id))]++
		}
		lo, hi := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if lo > 0 && hi-lo <= 1 {
			return w
		}
	}
	return min
}

// syncDelayStorage models each shard owning its own commit device: an
// in-memory storage whose Sync occupies the device, one sync at a time,
// for a wall-clock interval proportional to the bytes written since the
// previous sync — a bandwidth-limited device. Running the servers in
// per-commit durability against it caps a shard's commit rate at
// bandwidth / log-bytes-per-transaction, a capacity limit that lives
// off-CPU, so adding shards adds commit devices and throughput scales
// with the shard count even on a single-core host. Charging by bytes
// (rather than a flat per-sync cost) keeps the model batch-neutral: a
// sync covering ten queued commits costs ten commits' worth of device
// time, so per-shard capacity does not depend on how many clients happen
// to share a device. The rate starts at zero so the data load runs at
// memory speed; setRate arms it before measurement.
type syncDelayStorage struct {
	*wal.MemStorage
	device  sync.Mutex   // held for the duration of each delayed sync
	nsPerKB atomic.Int64 // device service time per KiB synced; 0 disables
	pending atomic.Int64 // bytes written since the last sync
}

func newSyncDelayStorage() *syncDelayStorage {
	return &syncDelayStorage{MemStorage: wal.NewMemStorage()}
}

func (s *syncDelayStorage) setRate(nsPerKB int64) { s.nsPerKB.Store(nsPerKB) }

// Create implements wal.Storage.
func (s *syncDelayStorage) Create(name string) (wal.File, error) {
	f, err := s.MemStorage.Create(name)
	if err != nil {
		return nil, err
	}
	return &syncDelayFile{File: f, s: s}, nil
}

// Open implements wal.Storage.
func (s *syncDelayStorage) Open(name string) (wal.File, error) {
	f, err := s.MemStorage.Open(name)
	if err != nil {
		return nil, err
	}
	return &syncDelayFile{File: f, s: s}, nil
}

type syncDelayFile struct {
	wal.File
	s *syncDelayStorage
}

// WriteAt counts bytes toward the next sync's device charge.
func (f *syncDelayFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if n > 0 && f.s.nsPerKB.Load() > 0 {
		f.s.pending.Add(int64(n))
	}
	return n, err
}

// Sync holds the device in proportion to the unsynced bytes before
// persisting. The mutex is the point: concurrent syncs queue rather than
// overlap, so the delay is a shared per-device service time, not a
// per-caller sleep.
func (f *syncDelayFile) Sync() error {
	if rate := f.s.nsPerKB.Load(); rate > 0 {
		if n := f.s.pending.Swap(0); n > 0 {
			f.s.device.Lock()
			time.Sleep(time.Duration(n * rate / 1024))
			f.s.device.Unlock()
		}
	}
	return f.File.Sync()
}

// shardCluster is a self-contained N-shard deployment on loopback:
// in-memory engines, one server per shard, and a router over them.
type shardCluster struct {
	router *shard.Router
	srvs   []*server.Server
	dbs    []*core.DB
	sts    []*syncDelayStorage
}

// Close stops the router, then every server, then every engine.
func (c *shardCluster) Close() error {
	if c.router != nil {
		c.router.Close()
	}
	for _, s := range c.srvs {
		s.Close()
	}
	for _, db := range c.dbs {
		db.Close()
	}
	return nil
}

func startShardCluster(shards, workers int) (_ *shardCluster, err error) {
	cl := &shardCluster{}
	var lns []net.Listener
	defer func() { // on failure, undo whatever was started
		if err != nil {
			for _, ln := range lns[len(cl.srvs):] {
				ln.Close()
			}
			cl.Close()
		}
	}()
	m := &shard.Map{Version: 1, Rules: tpccShardRules()}
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		m.Shards = append(m.Shards, shard.ShardInfo{Addr: ln.Addr().String()})
	}
	blob := m.EncodeBinary()
	for i, ln := range lns {
		st := newSyncDelayStorage()
		cl.sts = append(cl.sts, st)
		db, err := core.Open(core.Config{
			WAL:        wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20, Storage: st},
			GCInterval: 50 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		cl.dbs = append(cl.dbs, db)
		srv, err := server.New(server.Config{
			DB:              db,
			Workers:         workers + 8,
			Durability:      server.DurabilityPerCommit,
			ShardID:         uint32(i),
			ShardMapVersion: m.Version,
			ShardMapBlob:    blob,
		})
		if err != nil {
			return nil, err
		}
		cl.srvs = append(cl.srvs, srv)
		go srv.Serve(ln)
	}
	if cl.router, err = shard.NewRouter(m, shard.Options{PoolSize: 1, VerifyShards: true}); err != nil {
		return nil, err
	}
	return cl, nil
}

// ShardBench sweeps shard count x cross-partition percentage on TPC-C
// through the shard router: partition-local traffic should scale with the
// shard count (every transaction on the single-shard fast path), and the
// cross-partition knobs show what two-phase commit costs as more
// transactions span shards.
func ShardBench(p Params) error {
	p.setDefaults()
	shardCounts := []int{1, 3}
	remotePcts := []int{0, 1, 10}
	// Each sync occupies a shard's commit device in proportion to the bytes
	// it persists. The offered load (workers below) is sized to saturate
	// even the 3-shard cluster, so measured throughput reflects
	// commit-device capacity, not clients.
	const deviceNSPerKB = int64(8 * time.Millisecond) // 125 KiB/s sync bandwidth

	minW := p.Threads
	if maxShards := shardCounts[len(shardCounts)-1]; minW < 3*maxShards {
		// At least three home warehouses (= three workers) per shard, so
		// every shard's commit device stays saturated at the largest shard
		// count and the measurement reads device capacity, not client count.
		minW = 3 * maxShards
	}
	warehouses := balancedWarehouses(minW, shardCounts[len(shardCounts)-1])
	threads := warehouses // one worker per warehouse: balanced offered load
	report := ShardBenchReport{
		Benchmark:      "shard-tpcc",
		Engine:         EngERMIASI,
		Warehouses:     warehouses,
		Threads:        threads,
		DurationMS:     p.Duration.Milliseconds(),
		DeviceKBPerSec: int64(time.Second) / deviceNSPerKB,
	}

	p.printf("# TPC-C through the shard router: %d warehouses, %d workers, %d KiB/s per commit device\n", warehouses, threads, report.DeviceKBPerSec)
	p.printf("%-8s %-11s %12s %12s %12s %10s\n", "shards", "remote-pct", "txn/s", "fast", "cross", "cross%")

	var local [2]float64
	cfg := p.tpccConfig(warehouses, tpcc.AccessHome)
	for si, shards := range shardCounts {
		err := using(startShardCluster(shards, threads))(func(cl *shardCluster) error {
			if err := tpccWorkload(cfg).load(cl.router); err != nil {
				return err
			}
			// Loading ran at memory speed; measurement pays for durability.
			for _, st := range cl.sts {
				st.setRate(deviceNSPerKB)
			}
			for _, remote := range remotePcts {
				rcfg := cfg
				rcfg.RemoteItemPct = remote
				rcfg.RemotePaymentPct = remote
				if remote == 0 {
					rcfg.RemoteItemPct, rcfg.RemotePaymentPct = -1, -1
				}
				fast0, cross0 := cl.router.CommitCounts()
				res, err := p.run(cl.router, tpccWorkload(rcfg), 10, false, threads)
				if err != nil {
					return err
				}
				fast1, cross1 := cl.router.CommitCounts()
				pt := ShardPoint{
					Shards:       shards,
					RemotePct:    remote,
					TxnPerSec:    res.Throughput(),
					Commits:      res.TotalCommits(),
					FastCommits:  fast1 - fast0,
					CrossCommits: cross1 - cross0,
				}
				for _, k := range res.Kinds {
					pt.Aborts += k.Aborts
				}
				if rw := pt.FastCommits + pt.CrossCommits; rw > 0 {
					pt.CrossRatio = float64(pt.CrossCommits) / float64(rw)
				}
				report.Points = append(report.Points, pt)
				if remote == 0 {
					local[si] = pt.TxnPerSec
				}
				p.printf("%-8d %-11d %12.0f %12d %12d %9.1f%%\n",
					shards, remote, pt.TxnPerSec, pt.FastCommits, pt.CrossCommits, 100*pt.CrossRatio)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	if local[0] > 0 {
		report.LocalSpeedup = local[1] / local[0]
	}
	p.printf("# partition-local speedup (3 shards vs 1): %.2fx\n", report.LocalSpeedup)
	return p.writeReport(&report)
}
