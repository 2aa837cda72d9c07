package main

import (
	"fmt"
	"sort"

	"ermia/internal/tpcc"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"commit_tps", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"read_tps", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"success_rate", "ratio"},
	{"mem_per_user_byte", "ratio"},
}

// tpccKindName is a kind's name as it appears in metric names.
func tpccKindName(k tpcc.TxnKind) string {
	if k == tpcc.Q2Star {
		return "Q2Star"
	}
	return k.String()
}

// perLayer lists the per-layer metrics every traced run reports. A layer a
// workload does not use reports 0.
func perLayer() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"client.requests_per_write_txn", "count"},
		{"client.requests_per_read_txn", "count"},
		{"client.begin_us", "us"},
		{"client.op_us", "us"},
		{"client.commit_us", "us"},
		{"client.sock_writes_per_txn", "count"},
		{"client.conn_losses", "count"},
		{"client.retries", "count"},
		{"client.self_us_per_txn", "us"},

		{"server.commits_per_batch", "count"},
		{"server.sock_reads_per_txn", "count"},
		{"server.sock_writes_per_txn", "count"},
		{"server.aborts_per_attempt", "ratio"},

		{"wal.syncs_per_write_commit", "count"},
		{"wal.sync_us", "us"},
		{"wal.bytes_per_write_commit", "B"},
		{"wal.write_amp", "ratio"},
		{"wal.reservations_per_commit", "count"},
		{"wal.us_per_txn", "us"},
		{"wal.self_us_per_txn", "us"},

		{"core.get_us", "us"},
		{"core.update_us", "us"},
		{"core.insert_us", "us"},
		{"core.scan_us_per_row", "us"},
		{"core.commit_us", "us"},
		{"core.abort_rate.ww", "ratio"},
		{"core.abort_rate.ssn", "ratio"},
		{"core.abort_rate.phantom", "ratio"},
		{"core.other_us_per_txn", "us"},
		{"core.gc_pruned_per_commit", "count"},
		{"core.gc_runs", "count"},
		{"core.self_us_per_txn", "us"},

		{"index.us_per_txn", "us"},
		{"mvcc.us_per_txn", "us"},

		{"query.rows_examined_per_row_returned", "ratio"},
		{"query.ns_per_row_examined", "ns"},
		{"query.self_us_per_txn", "us"},
	}
	for _, q := range tpcc.CHQueries() {
		out = append(out, struct{ name, unit string }{"query." + q.Name + "_p50_ms", "ms"})
	}
	for k := tpcc.TxnKind(0); int(k) < tpcc.NumKinds; k++ {
		n := "tpcc." + tpccKindName(k)
		out = append(out,
			struct{ name, unit string }{n + ".tps", "1/s"},
			struct{ name, unit string }{n + ".abort_rate", "ratio"})
	}
	return append(out, []struct{ name, unit string }{
		{"proc.cpu_ms_per_txn", "ms"},
		{"proc.alloc_bytes_per_txn", "B"},
		{"proc.sys_share", "ratio"},
		{"proc.gc_cycles_per_s", "1/s"},
		{"gen.late_p99_ms", "ms"},
		{"bench.self_us_per_txn", "us"},
		{"fail_rate", "ratio"},
		{"trace.overhead_tps", "1/s"},
		{"trace.spans", "count"},
	}...)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics computes the untraced run's metrics from its episodes
// and their sum. Rates and percentiles are medians over the episodes. pcts
// collects the percentiles reported, with their sample counts: the
// metrics' and the write p99, which is printed but not a metric because on
// kv-wire it moved by more than half its median between runs of the same
// code. The p99 is taken over the whole run, as an episode of ch-htap has
// too few writes for 10 beyond it.
func endToEndMetrics(eps []*tally, sum *tally, setup []float64, memPerByte float64) (metrics, []pct) {
	m := metrics{}
	series := func(f func(t *tally) *samples) []*samples {
		out := make([]*samples, len(eps))
		for i, t := range eps {
			out[i] = f(t)
		}
		return out
	}
	rate := func(n func(t *tally) uint64) float64 {
		per := make([]float64, len(eps))
		for i, t := range eps {
			per[i] = ratio(float64(n(t)), t.elapsed.Seconds())
		}
		return median(per)
	}
	writes, reads := series(func(t *tally) *samples { return &t.write }), series(func(t *tally) *samples { return &t.read })
	w50, w95, w99 := pctOver("write", 0.50, writes), pctOver("write", 0.95, writes), pctOver("write", 0.99, []*samples{&sum.write})
	r50, r95 := pctOver("read", 0.50, reads), pctOver("read", 0.95, reads)
	m.set("setup_s", median(setup), "s")
	m.set("commit_tps", rate(func(t *tally) uint64 { return t.commits }), "1/s")
	m.set("write_p50_ms", w50.MS, "ms")
	m.set("write_p95_ms", w95.MS, "ms")
	m.set("read_tps", rate(func(t *tally) uint64 { return uint64(t.read.count()) }), "1/s")
	m.set("read_p50_ms", r50.MS, "ms")
	m.set("read_p95_ms", r95.MS, "ms")
	m.set("success_rate", ratio(float64(sum.commits+sum.rollbacks), float64(sum.attempts)), "ratio")
	m.set("mem_per_user_byte", memPerByte, "ratio")
	return m, []pct{w50, w95, w99, r50, r95}
}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	t             *tally
	before, after layerSnap
	p0, p1        procSnap
	spans         []span
	untracedTPS   float64
}

func layerMetrics(in layerInput) metrics {
	m := metrics{}
	for _, d := range perLayer() {
		m.set(d.name, 0, d.unit)
	}
	t := in.t
	secs := t.elapsed.Seconds()
	commits := float64(t.commits)
	writes := float64(t.writeCommits)
	reads := float64(t.read.count())
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	medianUS := func(names ...spanName) float64 {
		ns, _ := quantile(durations(in.spans, names...), 0.5)
		return us(ns)
	}
	// sampledNS estimates the total time of every span with the name from
	// the sampled requests' spans.
	sampledNS := func(name spanName) (total int64) {
		for _, s := range in.spans {
			if s.Name == name {
				total += s.End - s.Start
			}
		}
		return total * sampleEvery
	}
	d := layerSnap{core: in.after.core.sub(in.before.core)}
	a, b := in.after, in.before
	d.walBytes, d.walSyncs = a.walBytes-b.walBytes, a.walSyncs-b.walSyncs
	d.userBytes, d.rowsScanned = a.userBytes-b.userBytes, a.rowsScanned-b.rowsScanned
	d.clRetries, d.clLosses = a.clRetries-b.clRetries, a.clLosses-b.clLosses
	d.clWrites = a.clWrites - b.clWrites
	d.srvCommits, d.srvAborts = a.srvCommits-b.srvCommits, a.srvAborts-b.srvAborts
	d.srvBatches, d.srvGroupCommits = a.srvBatches-b.srvBatches, a.srvGroupCommits-b.srvGroupCommits
	d.srvReads, d.srvWrites = a.srvReads-b.srvReads, a.srvWrites-b.srvWrites

	// client
	m.set("client.requests_per_write_txn", ratio(float64(t.writeReqs), writes), "count")
	m.set("client.requests_per_read_txn", ratio(float64(t.readReqs), reads), "count")
	m.set("client.begin_us", medianUS(spClientBegin), "us")
	m.set("client.op_us", medianUS(spClientGet, spClientUpdate), "us")
	m.set("client.commit_us", medianUS(spClientCommit), "us")
	m.set("client.sock_writes_per_txn", ratio(float64(d.clWrites), commits), "count")
	m.set("client.conn_losses", float64(d.clLosses), "count")
	m.set("client.retries", float64(d.clRetries), "count")

	// server
	m.set("server.commits_per_batch", ratio(float64(d.srvGroupCommits), float64(d.srvBatches)), "count")
	m.set("server.sock_reads_per_txn", ratio(float64(d.srvReads), commits), "count")
	m.set("server.sock_writes_per_txn", ratio(float64(d.srvWrites), commits), "count")
	m.set("server.aborts_per_attempt", ratio(float64(d.srvAborts), float64(d.srvCommits+d.srvAborts)), "ratio")

	// wal
	m.set("wal.syncs_per_write_commit", ratio(float64(d.walSyncs), writes), "count")
	m.set("wal.sync_us", medianUS(spWalSync), "us")
	m.set("wal.bytes_per_write_commit", ratio(float64(d.walBytes), writes), "B")
	m.set("wal.write_amp", ratio(float64(d.walBytes), float64(d.userBytes)), "ratio")
	m.set("wal.reservations_per_commit", ratio(float64(d.core.reservations), float64(d.core.commits)), "count")
	m.set("wal.us_per_txn", ratio(us(d.core.log), commits), "us")

	// core
	coreAttempts := float64(d.core.commits + d.core.aborts)
	m.set("core.get_us", medianUS(spCoreGet), "us")
	m.set("core.update_us", medianUS(spCoreUpdate), "us")
	m.set("core.insert_us", medianUS(spCoreInsert), "us")
	m.set("core.commit_us", medianUS(spCoreCommit), "us")
	m.set("core.scan_us_per_row", ratio(us(sampledNS(spCoreScan)), float64(d.rowsScanned)), "us")
	m.set("core.abort_rate.ww", ratio(float64(d.core.ww), coreAttempts), "ratio")
	m.set("core.abort_rate.ssn", ratio(float64(d.core.ssn), coreAttempts), "ratio")
	m.set("core.abort_rate.phantom", ratio(float64(d.core.phantom), coreAttempts), "ratio")
	m.set("core.other_us_per_txn", ratio(us(d.core.other), commits), "us")
	m.set("core.gc_pruned_per_commit", ratio(float64(d.core.pruned), float64(d.core.commits)), "count")
	m.set("core.gc_runs", float64(d.core.gcRuns), "count")
	m.set("index.us_per_txn", ratio(us(d.core.index), commits), "us")
	m.set("mvcc.us_per_txn", ratio(us(d.core.indirect), commits), "us")

	// query
	m.set("query.rows_examined_per_row_returned", ratio(float64(t.qExamined), float64(t.qRows)), "ratio")
	m.set("query.ns_per_row_examined", ratio(float64(sampledNS(spQueryRun)), float64(t.qExamined)), "ns")
	for name, s := range t.queries {
		ns, _ := quantile(s.values(), 0.5)
		m.set("query."+name+"_p50_ms", float64(ns)/1e6, "ms")
	}

	// tpcc
	for k := tpcc.TxnKind(0); int(k) < tpcc.NumKinds; k++ {
		ks := t.kinds[k]
		n := "tpcc." + tpccKindName(k)
		m.set(n+".tps", ratio(float64(ks.commits), secs), "1/s")
		m.set(n+".abort_rate", ratio(float64(ks.conflicts), float64(ks.attempts)), "ratio")
	}

	// process
	cpu := (in.p1.user - in.p0.user) + (in.p1.system - in.p0.system)
	m.set("proc.cpu_ms_per_txn", ratio(float64(cpu.Microseconds())/1e3, commits), "ms")
	m.set("proc.alloc_bytes_per_txn", ratio(float64(in.p1.totalAlloc-in.p0.totalAlloc), commits), "B")
	m.set("proc.sys_share", ratio(float64(in.p1.system-in.p0.system), float64(cpu)), "ratio")
	m.set("proc.gc_cycles_per_s", ratio(float64(in.p1.numGC-in.p0.numGC), in.p1.at.Sub(in.p0.at).Seconds()), "1/s")
	late, _ := quantile(t.late.values(), 0.99)
	m.set("gen.late_p99_ms", float64(late)/1e6, "ms")
	m.set("fail_rate", ratio(float64(t.attempts-t.commits-t.rollbacks), float64(t.attempts)), "ratio")

	// span self times; wal spans are recorded for every call, the others
	// for sampled requests only
	for layer, ns := range selfTimes(in.spans) {
		if layer != "wal" {
			ns *= sampleEvery
		}
		m.set(layer+".self_us_per_txn", ratio(us(ns), commits), "us")
	}
	m.set("trace.overhead_tps", ratio(commits, secs)-in.untracedTPS, "1/s")
	m.set("trace.spans", float64(len(in.spans)), "count")
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
