package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies what a span measured. The text before the first dot
// is the layer the span's self time is charged to.
type spanName uint8

// Span names. Each decorated engine layer has one block in opBegin..opAbort
// order, so a decorator finds an operation's name as base+op.
const (
	spBenchTxn spanName = iota

	spClientBegin
	spClientGet
	spClientUpdate
	spClientInsert
	spClientDelete
	spClientScan
	spClientCommit
	spClientAbort

	spCoreBegin
	spCoreGet
	spCoreUpdate
	spCoreInsert
	spCoreDelete
	spCoreScan
	spCoreCommit
	spCoreAbort

	spQueryRun
	spWalWriteAt
	spWalSync
	numSpanNames
)

// Operation offsets inside a layer's block of span names.
const (
	opBegin = iota
	opGet
	opUpdate
	opInsert
	opDelete
	opScan
	opCommit
	opAbort
)

var spanNames = [numSpanNames]string{
	"bench.txn",
	"client.begin", "client.get", "client.update", "client.insert",
	"client.delete", "client.scan", "client.commit", "client.abort",
	"core.begin", "core.get", "core.update", "core.insert",
	"core.delete", "core.scan", "core.commit", "core.abort",
	"query.run", "wal.writeat", "wal.sync",
}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) layer() string {
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

// span is one timed call across a layer boundary. Parent is 0 for a root;
// Req groups the spans of one request (the id of its root).
type span struct {
	ID, Parent, Req uint64
	Start, End      int64 // ns since the tracer's epoch
	Name            spanName
}

// spanSlots is the number of independent span buffers. Each goroutine that
// records spans uses its own slot, so recording never contends.
const spanSlots = 256

// Slot assignment: benchmark workers use their worker id, server-side
// engine calls use serverSlot+their engine worker slot (mod 64), and the
// log's storage calls use walSlot.
const (
	serverSlot = 128
	walSlot    = spanSlots - 1
)

// tracer keeps every span in memory until the run ends, up to max spans;
// spans beyond that are counted and dropped.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	stored  atomic.Int64
	dropped atomic.Int64
	max     int64
	slots   [spanSlots]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newTracer(max int) *tracer { return &tracer{t0: time.Now(), max: int64(max)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(slot int, s span) {
	if t.stored.Add(1) > t.max {
		t.stored.Add(-1)
		t.dropped.Add(1)
		return
	}
	b := &t.slots[slot%spanSlots]
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// reset drops every stored span (those of the warm-up).
func (t *tracer) reset() {
	for i := range t.slots {
		b := &t.slots[i]
		b.mu.Lock()
		t.stored.Add(-int64(len(b.spans)))
		b.spans = nil
		b.mu.Unlock()
	}
	t.dropped.Store(0)
}

// all returns every stored span.
func (t *tracer) all() []span {
	out := make([]span, 0, t.stored.Load())
	for i := range t.slots {
		b := &t.slots[i]
		b.mu.Lock()
		out = append(out, b.spans...)
		b.mu.Unlock()
	}
	return out
}

// selfTimes returns each layer's total self time in ns: a span's duration
// minus the part of it its children cover, summed per layer. Children
// overlapping each other are counted once; parts outside the parent are
// ignored.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]int, len(spans)/2)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]int64)
	var iv [][2]int64
	for _, s := range spans {
		iv = iv[:0]
		for _, ci := range children[s.ID] {
			c := spans[ci]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curLo, curHi int64
		for i, x := range iv {
			switch {
			case i == 0:
				curLo, curHi = x[0], x[1]
			case x[0] <= curHi:
				curHi = max(curHi, x[1])
			default:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		out[s.Name.layer()] += s.End - s.Start - covered
	}
	return out
}

// durations collects the durations of every span with one of the names.
func durations(spans []span, names ...spanName) []int64 {
	var d []int64
	for _, sp := range spans {
		for _, n := range names {
			if sp.Name == n {
				d = append(d, sp.End-sp.Start)
				break
			}
		}
	}
	return d
}

// writeSpans writes one gzip-compressed tab-separated line per span:
// id, parent, request id, name, start ns, end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriterSize(z, 1<<20)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	err = w.Flush()
	if zerr := z.Close(); err == nil {
		err = zerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
