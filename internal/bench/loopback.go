package bench

import (
	"fmt"
	"net"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/repl"
	"ermia/internal/server"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// loopbackPrimary is the setup the server, repl and ckpt experiments share:
// a file-backed ERMIA core behind a server on a loopback listener.
type loopbackPrimary struct {
	db   *core.DB
	srv  *server.Server
	addr string
}

// startPrimary opens a core logging into dir with the given log geometry
// and serves it with scfg (whose DB is filled in).
func startPrimary(dir string, wcfg wal.Config, scfg server.Config) (*loopbackPrimary, error) {
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		return nil, err
	}
	wcfg.Storage = st
	db, err := core.Open(core.Config{WAL: wcfg})
	if err != nil {
		return nil, err
	}
	scfg.DB = db
	srv, err := server.New(scfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		db.Close()
		return nil, err
	}
	go srv.Serve(ln)
	return &loopbackPrimary{db: db, srv: srv, addr: ln.Addr().String()}, nil
}

// Close stops the server, then the engine.
func (lp *loopbackPrimary) Close() error {
	lp.srv.Close()
	return lp.db.Close()
}

// dial opens a client pool of the given size to the primary.
func (lp *loopbackPrimary) dial(pool int) (*client.Client, error) {
	return client.Dial(client.Options{Addr: lp.addr, PoolSize: pool})
}

// startReplica starts a replica streaming from the primary into a mirror
// log in dir.
func (lp *loopbackPrimary) startReplica(dir string) (*repl.Replica, error) {
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		return nil, err
	}
	return repl.Start(repl.Config{
		PrimaryAddr:    lp.addr,
		ReconnectDelay: 10 * time.Millisecond,
		Core:           core.Config{WAL: wal.Config{Storage: st}},
	})
}

// awaitReplica blocks until r has applied the primary's log up to its
// current durable offset and returns how long that took.
func (lp *loopbackPrimary) awaitReplica(r *repl.Replica) (time.Duration, error) {
	start := time.Now()
	target := lp.db.DurableOffset()
	for r.Watermark() < target {
		if err := r.Err(); err != nil {
			return 0, fmt.Errorf("replica stream failed: %w", err)
		}
		if time.Since(start) > 60*time.Second {
			return 0, fmt.Errorf("replica never caught up: watermark %#x, durable %#x", r.Watermark(), target)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), nil
}

// insertExec is the network experiments' transaction: each worker inserts
// fresh keys of its own into table "bench", so commits never conflict and
// the commit/durability path dominates. Worker w uses connection
// w % pool, so each connection carries workers/pool concurrent
// transactions.
func insertExec(c *client.Client, workers int) Exec {
	tbl := c.CreateTable("bench")
	value := make([]byte, 100)
	seq := make([]uint64, workers)
	return func(worker int, rng *xrand.Rand) (string, error) {
		seq[worker]++
		key := fmt.Sprintf("w%03d-%012d", worker, seq[worker])
		txn := c.Begin(worker)
		if err := txn.Insert(tbl, []byte(key), value); err != nil {
			txn.Abort()
			return "insert", err
		}
		return "insert", txn.Commit()
	}
}
