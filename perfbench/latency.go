package main

import (
	"math"
	"sort"
)

// samples keeps every latency it is given, so its percentiles are exact
// order statistics: no bucketing, no relative error. A run keeps at most a
// few hundred thousand samples per series, a few MB.
type samples struct{ ns []int64 }

func (s *samples) add(ns int64) { s.ns = append(s.ns, ns) }

func (s *samples) merge(o *samples) { s.ns = append(s.ns, o.ns...) }

func (s *samples) count() int { return len(s.ns) }

func (s *samples) values() []int64 { return append([]int64(nil), s.ns...) }

// quantile is the nearest-rank percentile of vals (sorted in place): the
// smallest value with at least q of all values at or below it. beyond is
// the number of values ranked above it.
func quantile(vals []int64, q float64) (v int64, beyond int) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	return vals[rank-1], n - rank
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// pct is one reported percentile with its evidence: the run's N samples
// came from Episodes episodes, each with at least Beyond samples beyond its
// own percentile; MS is the median of the episodes' percentiles, listed in
// PerEpisode.
type pct struct {
	Series     string    `json:"series"`
	Q          float64   `json:"q"`
	MS         float64   `json:"ms"`
	N          int       `json:"n"`
	Episodes   int       `json:"episodes"`
	Beyond     int       `json:"beyond"`
	PerEpisode []float64 `json:"per_episode_ms"`
}

// pctOver reports the q-th percentile as the median over the episodes of
// each episode's exact percentile.
func pctOver(series string, q float64, eps []*samples) pct {
	p := pct{Series: series, Q: q, Episodes: len(eps), Beyond: math.MaxInt}
	per := make([]float64, 0, len(eps))
	for _, s := range eps {
		v, beyond := quantile(s.values(), q)
		per = append(per, float64(v))
		p.PerEpisode = append(p.PerEpisode, float64(v)/1e6)
		p.N += s.count()
		p.Beyond = min(p.Beyond, beyond)
	}
	p.MS = median(per) / 1e6
	return p
}
