package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/server"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// kv-wire: an in-process ermia server over loopback TCP with group
// durability; two closed-loop callers share a 2-connection client pool.
// Each transaction is a single-key read-only Get or a single-key Update,
// half and half, on uniform keys.
//
// The log is on wal.MemStorage, standing in for the tmpfs the paper logs
// to. On the 2-core VM this benchmark was tuned on, a log in files on the
// virtual disk moved kv-wire's commit rate up to 3x between back-to-back
// runs (fsync medians from 0.1 to over 0.5 ms, and page-cache writes
// stalling behind writeback even with fsync skipped), far more than the
// changes the benchmark is meant to detect.

const (
	kvTable   = "kv"
	kvCallers = 2
	kvValue   = 100 // value bytes
	// initialCaller marks a value written at load time.
	initialCaller = 0xFF
)

// kvRows is the table size: far more rows than callers, so two callers
// practically never touch one row at once.
func kvRows(small bool) int {
	if small {
		return 2000
	}
	return 100000
}

func kvKey(i int) []byte {
	var k [10]byte
	copy(k[:], "kv")
	binary.BigEndian.PutUint64(k[2:], uint64(i))
	return k[:]
}

// kvVal encodes (caller, seq, key index) in front of the padding, so every
// stored value names the write that produced it.
func kvVal(caller byte, seq uint64, key int) []byte {
	v := make([]byte, kvValue)
	v[0] = caller
	binary.BigEndian.PutUint64(v[1:], seq)
	binary.BigEndian.PutUint64(v[9:], uint64(key))
	for i := 17; i < kvValue; i++ {
		v[i] = byte(i) ^ caller
	}
	return v
}

func kvDecode(v []byte) (caller byte, seq uint64, key int, ok bool) {
	if len(v) != kvValue {
		return 0, 0, 0, false
	}
	return v[0], binary.BigEndian.Uint64(v[1:]), int(binary.BigEndian.Uint64(v[9:])), true
}

type kvWire struct {
	rows    int
	callers int // at most kvCallers
	mem     *wal.MemStorage
	core    *core.DB
	srv     *server.Server
	cl      *client.Client
	run     engine.DB // the client, or its decorator
	tbl     engine.Table
	lay     *layers
	loaded  uint64

	// Per caller: the last acknowledged seq of each of its keys (0: none
	// since load), the seq of an update whose outcome is unknown, and the
	// next seq to write. Caller c updates only keys with index%callers==c,
	// so each key's last acknowledged write is well defined.
	acked   [kvCallers][]uint64
	unknown [kvCallers]map[int]uint64
	seq     [kvCallers]uint64
	bad     []string
	badMu   sync.Mutex
}

func setupKVWire(o opts) (instance, error) {
	kv := &kvWire{rows: kvRows(o.small), callers: kvCallers}
	if o.callers > 0 {
		kv.callers = min(o.callers, kvCallers)
	}
	if err := kv.open(o); err != nil {
		kv.close()
		return nil, err
	}
	return kv, nil
}

func (kv *kvWire) open(o opts) error {
	var err error
	kv.mem = wal.NewMemStorage()
	var st wal.Storage = kv.mem
	if o.tr != nil {
		sw := &storageWrap{Storage: st, tr: o.tr}
		st = sw
		kv.lay = &layers{tr: o.tr, wal: sw}
	}
	kv.core, err = core.Open(core.Config{
		WAL:        wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20, Storage: st},
		GCInterval: 50 * time.Millisecond,
		Profile:    o.tr != nil,
	})
	if err != nil {
		return err
	}
	if err := kv.load(); err != nil {
		return err
	}

	var served engine.DB = kv.core
	if kv.lay != nil {
		served = newServerCore(kv.core, o.tr)
	}
	kv.srv, err = server.New(server.Config{DB: served, Durability: server.DurabilityGroup,
		Workers: 2 * kvCallers, MaxConns: 2 * kvCallers})
	if err != nil {
		return err
	}
	var ln net.Listener
	if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	copts := client.Options{Addr: ln.Addr().String(), PoolSize: kv.callers}
	if kv.lay != nil {
		kv.lay.lis = &countListener{Listener: ln}
		ln = kv.lay.lis
		kv.lay.dialer = &countDialer{}
		copts.Dial = kv.lay.dialer.dial
	}
	go kv.srv.Serve(ln)
	if kv.cl, err = client.Dial(copts); err != nil {
		return err
	}
	kv.run = kv.cl
	if kv.lay != nil {
		kv.lay.cl, kv.lay.srv = kv.cl, kv.srv
		kv.lay.app = newDBWrap(kv.cl, o.tr, spClientBegin, 0)
		kv.run = kv.lay.app
	}
	if kv.tbl = kv.cl.OpenTable(kvTable); kv.tbl == nil {
		return fmt.Errorf("kv-wire: table %q not visible through the client", kvTable)
	}
	return nil
}

// load inserts every row through the embedded engine, in batches.
func (kv *kvWire) load() error {
	t := kv.core.CreateTable(kvTable)
	const batch = 1000
	for lo := 0; lo < kv.rows; lo += batch {
		txn := kv.core.Begin(0)
		for i := lo; i < min(lo+batch, kv.rows); i++ {
			k, v := kvKey(i), kvVal(initialCaller, 0, i)
			if err := txn.Insert(t, k, v); err != nil {
				txn.Abort()
				return err
			}
			kv.loaded += uint64(len(k) + len(v))
		}
		if err := txn.Commit(); err != nil {
			return err
		}
	}
	for c := range kv.acked {
		kv.acked[c] = make([]uint64, kv.rows)
		kv.unknown[c] = make(map[int]uint64)
	}
	return nil
}

func (kv *kvWire) db() *core.DB            { return kv.core }
func (kv *kvWire) medium() *wal.MemStorage { return kv.mem }
func (kv *kvWire) userBytes() uint64       { return kv.loaded }
func (kv *kvWire) layers() *layers         { return kv.lay }

func (kv *kvWire) violation(format string, args ...any) {
	kv.badMu.Lock()
	if len(kv.bad) < 16 {
		kv.bad = append(kv.bad, fmt.Sprintf(format, args...))
	}
	kv.badMu.Unlock()
}

func (kv *kvWire) drive(d time.Duration, phase, seed uint64) *tally {
	start := time.Now()
	end := start.Add(d)
	parts := make([]tally, kv.callers)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := xrand.New2(seed, phase<<8|uint64(c))
			for time.Now().Before(end) {
				kv.txn(&parts[c], c, rng)
			}
		}(c)
	}
	wg.Wait()
	total := &tally{}
	for i := range parts {
		total.merge(&parts[i])
	}
	total.elapsed = time.Since(start)
	return total
}

// frames is how many frames caller c's connection has written, when the
// sockets are counted.
func (kv *kvWire) frames(c int) uint64 {
	if kv.lay == nil {
		return 0
	}
	if cn := kv.lay.dialer.conn(c); cn != nil {
		return cn.frames.Load()
	}
	return 0
}

func (kv *kvWire) txn(t *tally, c int, rng *xrand.Rand) {
	write := rng.Intn(2) == 0
	key := rng.Intn(kv.rows)
	if write {
		key = key - key%kv.callers + c // the caller's own stripe
		if key >= kv.rows {
			key -= kv.callers
		}
	}
	f0 := kv.frames(c)
	begin := time.Now()
	var seq uint64
	out := t.run(func() error {
		end := rootSpan(kv.lay, c)
		defer end()
		if write {
			kv.seq[c]++
			seq = kv.seq[c]
			return kv.update(c, key, seq)
		}
		return kv.get(c, key)
	}, func(err error) {
		if write && err != nil {
			kv.unknown[c][key] = seq // the commit may or may not have applied
		}
	})
	lat := time.Since(begin).Nanoseconds()
	reqs := kv.frames(c) - f0
	if out != committed {
		return
	}
	if write {
		kv.acked[c][key] = seq
		delete(kv.unknown[c], key)
		t.write.add(lat)
		t.writeCommits++
		t.writeReqs += reqs
	} else {
		t.read.add(lat)
		t.readReqs += reqs
	}
}

func (kv *kvWire) update(c, key int, seq uint64) error {
	txn := kv.run.Begin(c)
	if err := txn.Update(kv.tbl, kvKey(key), kvVal(byte(c), seq, key)); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

// get reads one key and checks it against what this caller knows: a key
// in its own stripe must hold its last acknowledged write.
func (kv *kvWire) get(c, key int) error {
	txn := kv.run.BeginReadOnly(c)
	v, err := txn.Get(kv.tbl, kvKey(key))
	if err != nil {
		txn.Abort()
		return err
	}
	caller, seq, k, ok := kvDecode(v)
	if err := txn.Commit(); err != nil {
		return err
	}
	switch {
	case !ok || k != key:
		kv.violation("kv-wire: get key %d returned a value for key %d", key, k)
	case key%kv.callers == c && !kv.holds(c, key, caller, seq):
		kv.violation("kv-wire: get key %d saw (%d,%d), own last acknowledged write is %d", key, caller, seq, kv.acked[c][key])
	}
	return nil
}

// holds reports whether (caller, seq) is an acceptable value of key, a key
// in caller c's stripe: its last acknowledged write, or an update whose
// outcome the caller could not learn.
func (kv *kvWire) holds(c, key int, caller byte, seq uint64) bool {
	want := kv.acked[c][key]
	if u, ok := kv.unknown[c][key]; ok && caller == byte(c) && seq == u {
		return true
	}
	if want == 0 {
		return caller == initialCaller && seq == 0
	}
	return caller == byte(c) && seq == want
}

func (kv *kvWire) check() []string {
	kv.badMu.Lock()
	defer kv.badMu.Unlock()
	return append([]string(nil), kv.bad...)
}

// close shuts the client, server and engine down cleanly, then recovers
// the engine from the bytes its log synced and checks that every key holds
// its last acknowledged write.
func (kv *kvWire) close() []string {
	var bad []string
	if kv.cl != nil {
		kv.cl.Close()
	}
	if kv.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := kv.srv.Shutdown(ctx); err != nil {
			bad = append(bad, fmt.Sprintf("kv-wire: server shutdown: %v", err))
		}
		cancel()
	}
	if kv.core != nil {
		if err := kv.core.Close(); err != nil {
			bad = append(bad, fmt.Sprintf("kv-wire: engine close: %v", err))
		}
		if kv.acked[0] != nil && len(bad) == 0 {
			bad = append(bad, kv.recoverCheck()...)
		}
	}
	return bad
}

func (kv *kvWire) recoverCheck() []string {
	st := kv.mem.Crash()
	db, err := core.Recover(core.Config{WAL: wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20, Storage: st}})
	if err != nil {
		return []string{fmt.Sprintf("kv-wire: recover: %v", err)}
	}
	defer db.Close()
	t := db.OpenTable(kvTable)
	if t == nil {
		return []string{"kv-wire: recovered engine has no kv table"}
	}
	var bad []string
	seen := 0
	txn := db.BeginReadOnly(0)
	defer txn.Abort()
	err = txn.Scan(t, nil, nil, func(k, v []byte) bool {
		key := int(binary.BigEndian.Uint64(k[2:]))
		caller, seq, vk, ok := kvDecode(v)
		if !ok || vk != key || key != seen || !kv.holds(key%kv.callers, key, caller, seq) {
			bad = append(bad, fmt.Sprintf("kv-wire: recovered key %d (row %d) holds (%d,%d), last acknowledged write is %d",
				key, seen, caller, seq, kv.acked[key%kv.callers][key]))
			return len(bad) < 16
		}
		seen++
		return true
	})
	if err != nil {
		bad = append(bad, fmt.Sprintf("kv-wire: recovered scan: %v", err))
	} else if seen != kv.rows && len(bad) == 0 {
		bad = append(bad, fmt.Sprintf("kv-wire: recovered %d rows, loaded %d", seen, kv.rows))
	}
	return bad
}
