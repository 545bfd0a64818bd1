// Package stats computes the metrics the paper reports: FCT slowdown
// percentiles per flow-size bucket (Figures 2, 3, 10, 11, 12), switch
// queue-length CDFs (Figures 9, 10), PFC pause-time fractions (Figures
// 2b, 11b/d), throughput time series (Figures 9, 13) and Jain's
// fairness index (Figure 14).
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// copied, not mutated. Returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	return percentileOf(len(s), func(i int) float64 { return s[i] }, p)
}

// percentileOf is the p-th percentile of n > 0 observations whose i-th
// smallest is at(i), by linear interpolation between closest ranks.
func percentileOf(n int, at func(int) float64, p float64) float64 {
	if n == 1 {
		return at(0)
	}
	rank := float64(p / 100 * float64(n-1))
	lo := int(rank)
	if lo >= n-1 {
		return at(n - 1)
	}
	frac := rank - float64(lo)
	return float64(at(lo)*(1-frac)) + float64(at(lo+1)*frac)
}

// Summary bundles the order statistics the paper quotes.
type Summary struct {
	N                  int
	Mean               float64
	P50, P95, P99, Max float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:    len(s),
		Mean: sum / float64(len(s)),
		P50:  percentileSorted(s, 50),
		P95:  percentileSorted(s, 95),
		P99:  percentileSorted(s, 99),
		Max:  s[len(s)-1],
	}
}

// DepthCount is one distinct queue depth in bytes and how many
// observations saw it: one row of an exact depth multiset.
type DepthCount struct {
	Bytes int64
	Count int64
}

// summarizeDepths is Summarize over the multiset ds, sorted by
// increasing depth, without expanding it. Each percentile is
// percentileOf over the same order statistics as Summarize's, so the
// two agree bit for bit. The mean is the integer sum over the count,
// which equals Summarize's float sum while every partial sum stays
// below 2⁵³ bytes, where float64 still adds integers exactly (a load
// run's sums stay over 100× below it).
func summarizeDepths(ds []DepthCount) Summary {
	var n, sum int64
	for _, d := range ds {
		n += d.Count
		sum += d.Bytes * d.Count
	}
	if n == 0 {
		return Summary{}
	}
	return Summary{
		N:    int(n),
		Mean: float64(sum) / float64(n),
		P50:  percentileDepths(ds, n, 50),
		P95:  percentileDepths(ds, n, 95),
		P99:  percentileDepths(ds, n, 99),
		Max:  float64(ds[len(ds)-1].Bytes),
	}
}

// percentileDepths is the p-th percentile of the n > 0 observations
// of the multiset ds.
func percentileDepths(ds []DepthCount, n int64, p float64) float64 {
	return percentileOf(int(n), func(i int) float64 {
		for _, d := range ds {
			if int64(i) < d.Count {
				return float64(d.Bytes)
			}
			i -= int(d.Count)
		}
		return float64(ds[len(ds)-1].Bytes)
	}, p)
}

// Jain returns Jain's fairness index (Σx)²/(n·Σx²) ∈ [1/n, 1];
// 1 is perfectly fair. Returns NaN for empty input.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += float64(x * x)
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
