// Package bench is the workload harness behind every experiment in
// EXPERIMENTS.md: it runs N worker goroutines against an engine for a fixed
// duration, classifying each execution as commit, conflict abort, or
// intentional (user) abort, and recording per-transaction-type latency.
package bench

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"

	"ermia/internal/engine"
	"ermia/internal/xrand"
)

// Exec runs one transaction on behalf of a worker and returns its type name
// and outcome error (nil = committed).
type Exec func(worker int, rng *xrand.Rand) (kind string, err error)

// Options configures a harness run.
type Options struct {
	Workers  int
	Duration time.Duration
	Exec     Exec
	// IsUserAbort classifies intentional benchmark rollbacks (e.g. TPC-C's
	// 1% NewOrder abort); they count as neither commit nor conflict.
	IsUserAbort func(error) bool
	// Seed perturbs worker RNGs so repeated runs differ.
	Seed uint64
	// WarmupFraction of Duration runs before counters reset. Default 0.
	WarmupFraction float64
}

// KindStats aggregates outcomes for one transaction type.
type KindStats struct {
	Attempts   uint64
	Commits    uint64
	Aborts     uint64 // concurrency-conflict aborts
	UserAborts uint64

	latSum   time.Duration
	latMin   time.Duration
	latMax   time.Duration
	latCount uint64
	// buckets[i] counts latencies in [2^i, 2^(i+1)) microseconds.
	buckets [40]uint64
}

// AbortRatio returns conflict aborts / attempts (excluding user aborts).
func (k *KindStats) AbortRatio() float64 {
	att := k.Attempts - k.UserAborts
	if att == 0 {
		return 0
	}
	return float64(k.Aborts) / float64(att)
}

// MeanLatency returns the average committed-execution latency.
func (k *KindStats) MeanLatency() time.Duration {
	if k.latCount == 0 {
		return 0
	}
	return k.latSum / time.Duration(k.latCount)
}

// MinLatency returns the fastest committed execution.
func (k *KindStats) MinLatency() time.Duration { return k.latMin }

// MaxLatency returns the slowest committed execution.
func (k *KindStats) MaxLatency() time.Duration { return k.latMax }

// Percentile returns an approximate latency percentile (0 < p <= 1) from
// the log-scale histogram.
func (k *KindStats) Percentile(p float64) time.Duration {
	if k.latCount == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(k.latCount)))
	var cum uint64
	for i, c := range k.buckets {
		cum += c
		if cum >= target {
			return time.Duration(1<<uint(i)) * time.Microsecond
		}
	}
	return k.latMax
}

func (k *KindStats) record(lat time.Duration, outcome int) {
	k.Attempts++
	switch outcome {
	case outcomeCommit:
		k.Commits++
		k.latSum += lat
		k.latCount++
		if k.latMin == 0 || lat < k.latMin {
			k.latMin = lat
		}
		if lat > k.latMax {
			k.latMax = lat
		}
		us := lat.Microseconds()
		idx := 0
		if us > 0 {
			idx = bits.Len64(uint64(us)) - 1
		}
		if idx >= len(k.buckets) {
			idx = len(k.buckets) - 1
		}
		k.buckets[idx]++
	case outcomeAbort:
		k.Aborts++
	case outcomeUser:
		k.UserAborts++
	}
}

func (k *KindStats) merge(o *KindStats) {
	k.Attempts += o.Attempts
	k.Commits += o.Commits
	k.Aborts += o.Aborts
	k.UserAborts += o.UserAborts
	k.latSum += o.latSum
	k.latCount += o.latCount
	if k.latMin == 0 || (o.latMin > 0 && o.latMin < k.latMin) {
		k.latMin = o.latMin
	}
	if o.latMax > k.latMax {
		k.latMax = o.latMax
	}
	for i := range k.buckets {
		k.buckets[i] += o.buckets[i]
	}
}

const (
	outcomeCommit = iota
	outcomeAbort
	outcomeUser
)

// Result summarizes a harness run.
type Result struct {
	Duration time.Duration
	Workers  int
	Kinds    map[string]*KindStats
	Err      error // first non-retryable workload error, if any
}

// TotalCommits sums commits across kinds.
func (r *Result) TotalCommits() uint64 {
	var n uint64
	for _, k := range r.Kinds {
		n += k.Commits
	}
	return n
}

// Throughput returns committed transactions per second.
func (r *Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.TotalCommits()) / r.Duration.Seconds()
}

// KindThroughput returns one type's committed transactions per second.
func (r *Result) KindThroughput(kind string) float64 {
	k, ok := r.Kinds[kind]
	if !ok || r.Duration <= 0 {
		return 0
	}
	return float64(k.Commits) / r.Duration.Seconds()
}

// Run drives Options.Workers goroutines until the deadline.
func Run(opts Options) Result {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	isUser := opts.IsUserAbort
	if isUser == nil {
		isUser = func(error) bool { return false }
	}

	type workerResult struct {
		kinds map[string]*KindStats
		err   error
	}
	results := make([]workerResult, opts.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	warmupUntil := start.Add(time.Duration(opts.WarmupFraction * float64(opts.Duration)))
	deadline := start.Add(opts.Duration)

	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New2(uint64(id)+1, opts.Seed+0xBEEF)
			kinds := map[string]*KindStats{}
			warm := opts.WarmupFraction > 0
			for {
				now := time.Now()
				if now.After(deadline) {
					break
				}
				if warm && now.After(warmupUntil) {
					kinds = map[string]*KindStats{}
					warm = false
				}
				t0 := time.Now()
				kind, err := opts.Exec(id, rng)
				lat := time.Since(t0)
				ks := kinds[kind]
				if ks == nil {
					ks = &KindStats{}
					kinds[kind] = ks
				}
				switch {
				case err == nil:
					ks.record(lat, outcomeCommit)
				case isUser(err):
					ks.record(lat, outcomeUser)
				case engine.Classify(err) == engine.OutcomeConflict:
					// Only conflicts count as aborts; availability and
					// fatal errors stop the worker and surface.
					ks.record(lat, outcomeAbort)
				default:
					results[id] = workerResult{kinds: kinds,
						err: fmt.Errorf("%s (worker %d): %w", kind, id, err)}
					return
				}
			}
			results[id] = workerResult{kinds: kinds}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if opts.WarmupFraction > 0 {
		elapsed = deadline.Sub(warmupUntil)
	}

	out := Result{Duration: elapsed, Workers: opts.Workers, Kinds: map[string]*KindStats{}}
	for _, wr := range results {
		if wr.err != nil && out.Err == nil {
			out.Err = wr.err
		}
		for name, ks := range wr.kinds {
			if agg := out.Kinds[name]; agg != nil {
				agg.merge(ks)
			} else {
				cp := *ks
				out.Kinds[name] = &cp
			}
		}
	}
	return out
}

// Table renders the result as an aligned text table, one row per kind.
func (r *Result) Table() string {
	names := make([]string, 0, len(r.Kinds))
	for n := range r.Kinds {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %10s %12s %12s\n",
		"txn", "commits", "commits/s", "aborts", "abort%", "mean-lat", "p99-lat")
	for _, n := range names {
		k := r.Kinds[n]
		fmt.Fprintf(&b, "%-16s %12d %12.0f %10d %9.1f%% %12v %12v\n",
			n, k.Commits, float64(k.Commits)/r.Duration.Seconds(), k.Aborts,
			k.AbortRatio()*100, k.MeanLatency().Round(time.Microsecond),
			k.Percentile(0.99).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "%-16s %12d %12.0f\n", "TOTAL", r.TotalCommits(), r.Throughput())
	return b.String()
}
