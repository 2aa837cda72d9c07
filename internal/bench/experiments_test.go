package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeHeaders pins each experiment's title and column-header lines at the
// smoke scale below, byte for byte: the rows underneath are measurements,
// but these lines are the tables' format.
var smokeHeaders = map[string][]string{
	"fig1": {
		"# Figure 1: microbenchmark, 3000 rows, 2 threads, 150ms/point",
		"readset    w/r       engine             kTps     abort%",
	},
	"fig2": {
		"# Figure 2: TPC-C, 2 warehouses, 2 threads",
		"engine     txn               commits/s   attempts/s     abort%",
		"# Figure 2: TPC-C + Q2* (10% size), 2 warehouses, 2 threads",
		"engine     txn               commits/s   attempts/s     abort%",
	},
	"fig5": {
		"# Figure 5: TPC-C-hybrid vs TPC-CH-Q2* size (2 threads; normalized to ERMIA-SI; absolute ERMIA-SI TPS last column)",
		"size%  engine       norm-overall       norm-Q2*   Q2*-abort%   ERMIA-SI-TPS",
	},
	"fig6": {
		"# Figure 6: TPC-E-hybrid vs AssetEval size (2 threads; normalized to ERMIA-SI; absolute ERMIA-SI TPS last column)",
		"size%  engine       norm-overall norm-AssetEval AssetEval-abort%   ERMIA-SI-TPS",
	},
	"fig7": {
		"# Figure 7: scalability, stock mixes (150ms/point)",
		"bench    threads  engine             kTps",
	},
	"fig8": {
		"# Figure 8: TPC-C with randomized partition targeting",
		"access    threads  engine             kTps     abort%",
	},
	"fig9": {
		"# Figure 9: TPC-E-hybrid scalability",
		"size%  threads  engine             kTps",
	},
	"fig10": {
		"# Figure 10: ERMIA-SI logging strategies, TPC-C",
		"mode     threads          kTps   log-resv/txn     log-KB/txn",
	},
	"fig11": {
		"# Figure 11: ERMIA-SI component breakdown per committed txn, TPC-C",
		"threads        us/txn     index%     indir%       log%     other%",
	},
	"fig12": {
		"# Figure 12: TPC-CH-Q2* latency (committed executions)",
		"size%  threads  engine          mean-ms       min-ms       max-ms",
	},
	"table1": {
		"# Table 1: overall TPS of ERMIA-SI over read-mostly txn size",
		"workload               1%         5%        10%        20%        40%        60%        80%       100%",
	},
	"server": {
		"mode        clients  depth        txn/s    p50(us)    p99(us)",
	},
	"repl": {
		"writers         txn/s    apply-blk/s      lag-p50      lag-p99      lag-max  catchup(us)",
	},
	"ckpt": {
		"# recovery time vs log history (3000 rows overwritten per round)",
		"round           log-bytes    recover(us)",
		"# replica bootstrap: scratch mirror vs checkpoint seed",
		"replica         log-bytes    catchup(us)",
	},
	"chaos": {
		"# nemesis chaos: 5 seeds x 150ms (partitions, cuts, crashes, failovers)",
		"seed          acked   attempts  goodput  promo  crash      acked/s   faults",
	},
	"query": {
		"# query: CH-style analytics over live TPC-C tables, 2 warehouses, 2 threads, 150ms/phase",
		"query              runs     rows    p50(us)    p95(us)    max(us)",
		"phase           writer-kTps",
	},
	"shard": {
		"# TPC-C through the shard router: 10 warehouses, 10 workers, 125 KiB/s per commit device",
		"shards   remote-pct         txn/s         fast        cross     cross%",
	},
}

// smokeReports names the typed report each JSON-writing experiment emits.
var smokeReports = map[string]func() any{
	"server": func() any { return new(ServerBenchReport) },
	"repl":   func() any { return new(ReplBenchReport) },
	"ckpt":   func() any { return new(CkptBenchReport) },
	"chaos":  func() any { return new(ChaosBenchReport) },
	"query":  func() any { return new(QueryBenchReport) },
	"shard":  func() any { return new(ShardBenchReport) },
}

// TestExperimentsSmoke runs every experiment at a tiny scale, asserting it
// completes, prints its title and column headers unchanged, and (for the
// experiments with a machine-readable report) writes JSON that decodes
// into its report type with no unknown fields. This exercises the full
// harness (all three engines, every workload, every sweep) end to end;
// skipped under -short because the loads dominate.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	for _, e := range Experiments {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var sb strings.Builder
			params := Params{
				Threads:   2,
				Duration:  150 * time.Millisecond,
				Items:     1000,
				Customers: 60,
				MicroRows: 3000,
				Out:       &sb,
			}
			newReport, hasJSON := smokeReports[e.Name]
			if hasJSON {
				params.JSONPath = filepath.Join(t.TempDir(), "BENCH_"+e.Name+".json")
			}
			if err := e.Run(params); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			out := sb.String()
			if !strings.Contains(out, "#") || len(strings.Split(out, "\n")) < 4 {
				t.Fatalf("%s produced no table:\n%s", e.Name, out)
			}

			want, ok := smokeHeaders[e.Name]
			if !ok {
				t.Fatalf("%s: no pinned header lines", e.Name)
			}
			lines := strings.Split(out, "\n")
			next := 0
			for _, l := range lines {
				if next < len(want) && l == want[next] {
					next++
				}
			}
			if next < len(want) {
				t.Fatalf("%s: header line %q missing or out of order in:\n%s", e.Name, want[next], out)
			}

			if hasJSON {
				blob, err := os.ReadFile(params.JSONPath)
				if err != nil {
					t.Fatal(err)
				}
				dec := json.NewDecoder(bytes.NewReader(blob))
				dec.DisallowUnknownFields()
				if err := dec.Decode(newReport()); err != nil {
					t.Fatalf("%s report does not decode into its type: %v\n%s", e.Name, err, blob)
				}
			}
		})
	}
}

func TestOpenEngineNames(t *testing.T) {
	for _, name := range AllEngines {
		db, err := OpenEngine(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		db.Close()
	}
	if _, err := OpenEngine("bogus"); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	p.setDefaults()
	if p.Threads == 0 || p.Duration == 0 || p.Items == 0 || p.MicroRows == 0 || p.Customers == 0 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	full := Params{Full: true}
	full.setDefaults()
	if full.Threads != 24 || full.Items != 100000 {
		t.Fatalf("full defaults: %+v", full)
	}
}

// TestCheckedInReportsDecode holds the report types to the field names of
// the BENCH_*.json files checked in at the repository root: renaming or
// dropping a field breaks the strict decode of the published report.
func TestCheckedInReportsDecode(t *testing.T) {
	for name, newReport := range smokeReports {
		path := filepath.Join("..", "..", "BENCH_"+name+".json")
		blob, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue // not every experiment's report is checked in
		}
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		if err := dec.Decode(newReport()); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
