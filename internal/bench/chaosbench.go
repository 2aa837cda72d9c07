package bench

import (
	"fmt"

	"ermia/internal/nemesis"
)

// ChaosPoint is one nemesis run: the seed, what its fault schedule did to
// the cluster, and what the retrying workload still got through.
type ChaosPoint struct {
	Seed       uint64  `json:"seed"`
	Acked      int     `json:"acked_commits"`
	Attempts   int     `json:"attempts"`
	Reads      int     `json:"snapshot_reads"`
	Promotions int     `json:"promotions"`
	Crashes    int     `json:"primary_crashes"`
	Faults     int     `json:"scheduled_faults"`
	AckedPerS  float64 `json:"acked_per_sec"`
	// Goodput is acked/attempts — the fraction of transaction executions
	// that survived to an acknowledgment despite cuts, partitions, and
	// failovers (retries burn the rest).
	Goodput float64 `json:"goodput"`
}

// ChaosBenchReport is the machine-readable output of the chaos experiment
// (written to Params.JSONPath as BENCH_chaos.json).
type ChaosBenchReport struct {
	Benchmark  string       `json:"benchmark"` // "network-chaos"
	Engine     string       `json:"engine"`
	DurationMS int64        `json:"duration_ms_per_seed"`
	Points     []ChaosPoint `json:"points"`
	Violations []string     `json:"violations,omitempty"`
}

// ChaosBench measures availability under the nemesis fault schedule: a
// primary + replica cluster on the fault-injecting transport, a retrying
// client workload, and per-seed partitions, crashes, and supervised
// promotions. The headline is goodput (acked commits per attempt) and acked
// throughput per second of chaos; any invariant violation fails the
// experiment outright, because a benchmark of a broken database measures
// nothing.
func ChaosBench(p Params) error {
	p.setDefaults()
	dur := p.Duration
	seeds := []uint64{1, 2, 3, 4, 5}
	if p.Full {
		seeds = make([]uint64, 20)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
	}

	report := ChaosBenchReport{
		Benchmark:  "network-chaos",
		Engine:     EngERMIASI,
		DurationMS: dur.Milliseconds(),
	}
	p.printf("# nemesis chaos: %d seeds x %v (partitions, cuts, crashes, failovers)\n", len(seeds), dur)
	p.printf("%-8s %10s %10s %8s %6s %6s %12s %8s\n",
		"seed", "acked", "attempts", "goodput", "promo", "crash", "acked/s", "faults")
	for _, seed := range seeds {
		res, err := nemesis.Run(nemesis.Config{Seed: seed, Duration: dur})
		if err != nil {
			return fmt.Errorf("bench: chaos seed %d: %w", seed, err)
		}
		report.Violations = append(report.Violations, res.Violations...)
		pt := ChaosPoint{
			Seed:       seed,
			Acked:      res.Acked,
			Attempts:   res.Attempts,
			Reads:      res.Reads,
			Promotions: res.Promotions,
			Crashes:    res.Crashes,
			Faults:     len(res.Schedule),
			AckedPerS:  float64(res.Acked) / dur.Seconds(),
		}
		if res.Attempts > 0 {
			pt.Goodput = float64(res.Acked) / float64(res.Attempts)
		}
		report.Points = append(report.Points, pt)
		p.printf("%-8d %10d %10d %8.3f %6d %6d %12.0f %8d\n",
			seed, pt.Acked, pt.Attempts, pt.Goodput, pt.Promotions, pt.Crashes, pt.AckedPerS, pt.Faults)
	}
	if len(report.Violations) > 0 {
		for _, v := range report.Violations {
			p.printf("# VIOLATION: %s\n", v)
		}
		return fmt.Errorf("bench: chaos found %d invariant violations", len(report.Violations))
	}
	return p.writeReport(&report)
}
