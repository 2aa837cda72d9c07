package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// TestQuantileMatchesSortedSamples checks the recorder against percentiles
// computed independently from a sorted copy: it keeps raw samples, so the
// two must agree exactly, and so must the count of samples beyond.
func TestQuantileMatchesSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 99, 1000, 12345} {
		var s samples
		for i := 0; i < n; i++ {
			// Heavy-tailed, with ties.
			s.add(int64(rng.ExpFloat64()*1000) / 10 * 10)
		}
		sorted := s.values()
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 0.999, 1} {
			want := sorted[0]
			wantBeyond := n - 1
			for i, v := range sorted { // the first value with >= q of all at or below it
				if float64(i+1) >= q*float64(n) {
					want, wantBeyond = v, n-(i+1)
					break
				}
			}
			got, beyond := quantile(s.values(), q)
			if got != want || beyond != wantBeyond {
				t.Errorf("n=%d q=%g: got %d (%d beyond), want %d (%d beyond)", n, q, got, beyond, want, wantBeyond)
			}
			// One episode is the plain percentile.
			if p := pctOver("x", q, []*samples{&s}); p.MS != float64(want)/1e6 || p.N != n || p.Beyond != wantBeyond {
				t.Errorf("n=%d q=%g: pct over one episode = %+v, want %d ns", n, q, p, want)
			}
		}
	}
}

// TestPctOverEpisodes checks that a percentile over episodes is the
// median of the episodes' own percentiles, with the fewest samples beyond
// any of them.
func TestPctOverEpisodes(t *testing.T) {
	eps := make([]*samples, 3)
	for i, scale := range []int64{3, 1, 2} {
		eps[i] = &samples{}
		for v := int64(1); v <= 100*scale; v++ {
			eps[i].add(v * 1000)
		}
	}
	// The p90s are 270, 90 and 180 us, with 30, 10 and 20 samples beyond.
	p := pctOver("x", 0.9, eps)
	if p.MS != 0.18 || p.N != 600 || p.Episodes != 3 || p.Beyond != 10 {
		t.Errorf("p90 over three episodes = %+v, want 0.18 ms, n=600, 3 episodes, 10 beyond", p)
	}
}

// TestSelfTimesHandBuiltTree checks span self time on a tree whose answer
// is worked out by hand: overlapping children count once, and a child's
// part outside its parent is not subtracted from the parent.
func TestSelfTimesHandBuiltTree(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Name: spBenchTxn},                // children cover [10,60] and [90,100]
		{ID: 2, Parent: 1, Start: 10, End: 40, Name: spClientBegin},  // child 5 covers [15,25]
		{ID: 3, Parent: 1, Start: 30, End: 60, Name: spClientCommit}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120, Name: spClientGet},   // ends after its parent
		{ID: 5, Parent: 2, Start: 15, End: 25, Name: spCoreGet},      // leaf
		{ID: 6, Start: 200, End: 260, Name: spWalSync},               // a root of its own
		{ID: 7, Parent: 6, Start: 210, End: 260, Name: spWalWriteAt}, // covers the rest of 6
		{ID: 8, Parent: 1, Start: 60, End: 60, Name: spClientAbort},  // empty
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"bench":  100 - 50 - 10,
		"client": (30 - 10) + 30 + 30 + 0,
		"core":   10,
		"wal":    10 + 50,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestFrameCounter(t *testing.T) {
	frame := func(payload int) []byte {
		b := make([]byte, 20+payload+4)
		b[16] = byte(payload)
		return b
	}
	var stream []byte
	for _, n := range []int{0, 5, 200, 17} {
		stream = append(stream, frame(n)...)
	}
	for _, cut := range []int{1, 3, 7, 20, 64, len(stream)} {
		c := &countConn{st: &sockStats{}}
		for i := 0; i < len(stream); i += cut {
			c.countFrames(stream[i:min(i+cut, len(stream))])
		}
		if got := c.frames.Load(); got != 4 {
			t.Errorf("writes of %d bytes: counted %d frames, want 4", cut, got)
		}
	}
}

// TestKVWireExactCounts runs kv-wire traced with one caller and checks the
// counts that are exact today: every transaction is Begin, op, Commit on
// the wire; with one caller each group-commit batch holds one commit and
// each write commit costs at most one log sync.
func TestKVWireExactCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a server")
	}
	w := workloadByName(t, "kv-wire")
	tr := newTracer(maxSpans)
	inst, err := w.setup(opts{seed: 3, small: true, callers: 1, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	inst.drive(100*time.Millisecond, 0, 3)
	before, p0 := takeLayers(inst.db(), inst.layers()), takeProc()
	tl := inst.drive(500*time.Millisecond, 1, 3)
	after, p1 := takeLayers(inst.db(), inst.layers()), takeProc()
	m := layerMetrics(layerInput{t: tl, before: before, after: after, p0: p0, p1: p1, spans: tr.all()})
	if bad := append(inst.check(), inst.close()...); len(bad) > 0 {
		t.Fatalf("violations: %v", bad)
	}
	if tl.writeCommits == 0 || tl.read.count() == 0 {
		t.Fatalf("drove %d writes and %d reads", tl.writeCommits, tl.read.count())
	}
	for name, want := range map[string]float64{
		"client.requests_per_write_txn": 3,
		"client.requests_per_read_txn":  3,
		"server.commits_per_batch":      1,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := m["wal.syncs_per_write_commit"].Value; got > 1 || got == 0 {
		t.Errorf("wal.syncs_per_write_commit = %g, want in (0, 1]", got)
	}
}

// TestEveryMetricEmitted runs every workload briefly, untraced and traced,
// and checks that each reports exactly the metrics BENCHMARK.json names.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := workloadByName(t, sw.Name)
		cfg := runConfig{seed: 5, outdir: t.TempDir(), small: true}
		plain, err := untracedRun(w, cfg, 300*time.Millisecond, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := tracedRun(w, cfg, 600*time.Millisecond)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, run := range []struct {
			kind string
			m    metrics
			want []struct{ Name, Unit string }
			bad  []string
		}{{"end-to-end", plain.m, spec.EndToEnd, plain.bad}, {"per-layer", traced.m, spec.PerLayer, traced.bad}} {
			if len(run.bad) > 0 {
				t.Errorf("%s %s: violations %v", w.name, run.kind, run.bad)
			}
			if len(run.m) != len(run.want) {
				t.Errorf("%s: %d %s metrics, BENCHMARK.json names %d", w.name, len(run.m), run.kind, len(run.want))
			}
			for _, d := range run.want {
				got, ok := run.m[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s: %s metric %s = %+v, want unit %s", w.name, run.kind, d.Name, got, d.Unit)
				}
			}
		}
		if v := plain.m["commit_tps"].Value; v <= 0 {
			t.Errorf("%s: commit_tps = %g", w.name, v)
		}
	}
}

func workloadByName(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}
