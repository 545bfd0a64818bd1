package stats

import "math"

// Sketch is a streaming quantile sketch in the DDSketch family: values
// land in geometric buckets gamma^k, so every quantile estimate is
// within a configurable relative accuracy α of an exact order
// statistic, and memory is O(buckets) regardless of how many values
// stream in.
//
// It is the linear-memory-retention replacement for FCT-record and
// queue-sample slices: million-flow campaigns keep per-size-bucket
// slowdown sketches and interval-windowed queue sketches instead of
// every observation.
//
// The zero Sketch is not ready; use NewSketch. Values below minIndexable
// (including zero and negatives) are counted in a dedicated zero bucket
// and only influence quantiles through the exact Min.
type Sketch struct {
	gamma   float64 // derived from α at construction: (1+α)/(1-α)
	invLogG float64 // 1 / ln(gamma)
	maxBins int     // collapse bound on len(bins)

	// bins[i] counts values whose key is lo+i; a key k covers the value
	// range (gamma^(k-1), gamma^k].
	bins []uint64
	lo   int // key of bins[0]

	zeros    uint64 // values < minIndexable
	count    uint64
	sum      float64
	min, max float64
}

// DefaultRelativeAccuracy is the sketch accuracy used when a caller
// passes α <= 0: quantile estimates within 1% of an exact order
// statistic.
const DefaultRelativeAccuracy = 0.01

// minIndexable is the smallest value the geometric store indexes;
// anything below it (simulation statistics are nonnegative) is counted
// in the zero bucket. Slowdowns are >= 1 and queue depths are whole
// bytes, so only true zeros land there in practice.
const minIndexable = 1e-9

// defaultMaxBins bounds the dense store. With α = 1%, ~2300 buckets
// span minIndexable..1e10 — far beyond any slowdown or queue depth this
// simulator produces — so collapsing is a safety valve, not a steady
// state.
const defaultMaxBins = 4096

// NewSketch returns an empty sketch with relative accuracy alpha
// (DefaultRelativeAccuracy when alpha <= 0).
func NewSketch(alpha float64) *Sketch {
	return newSketchMax(alpha, defaultMaxBins)
}

func newSketchMax(alpha float64, maxBins int) *Sketch {
	if alpha <= 0 {
		alpha = DefaultRelativeAccuracy
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		gamma:   gamma,
		invLogG: 1 / math.Log(gamma),
		maxBins: maxBins,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// key maps a value to its bucket index: the smallest k with
// gamma^k >= v (0 for a value the zero bucket counts).
func (s *Sketch) key(v float64) int {
	if v < minIndexable {
		return 0
	}
	return int(math.Ceil(math.Log(v) * s.invLogG))
}

// value returns the representative value of bucket k: the midpoint of
// (gamma^(k-1), gamma^k], within α of everything in the bucket.
func (s *Sketch) value(k int) float64 {
	return math.Pow(s.gamma, float64(k)) * 2 / (1 + s.gamma)
}

// Add inserts one value. Allocation-free once the value range has been
// seen: the dense store only grows when a value lands outside the
// current key span (TestSketchAllocFreeAfterWarmup).
func (s *Sketch) Add(v float64) { s.AddN(v, 1) }

// AddN inserts a value n times.
func (s *Sketch) AddN(v float64, n uint64) {
	if n > 0 {
		s.addKeyed(v, s.key(v), n)
	}
}

// addKeyed is AddN, n > 0, for a caller that has v's key k: one key
// serves every sketch of the same α.
func (s *Sketch) addKeyed(v float64, k int, n uint64) {
	s.count += n
	s.sum += float64(v * float64(n))
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v < minIndexable {
		s.zeros += n
		return
	}
	s.bucket(k).add(n)
}

// binref is a settable cell of the dense store.
type binref struct {
	s *Sketch
	i int
}

func (b binref) add(n uint64) { b.s.bins[b.i] += n }

// bucket grows the store to cover key k and returns its cell.
func (s *Sketch) bucket(k int) binref {
	if len(s.bins) == 0 {
		s.bins = append(s.bins, 0)
		s.lo = k
		return binref{s, 0}
	}
	if k < s.lo {
		s.growDown(s.lo - k)
	}
	if i := k - s.lo; i >= len(s.bins) {
		s.growUp(i + 1 - len(s.bins))
	}
	if len(s.bins) > s.maxBins {
		s.collapse()
	}
	if k < s.lo { // collapsed past k: fold into the collapsed floor
		k = s.lo
	}
	return binref{s, k - s.lo}
}

func (s *Sketch) growDown(by int) {
	s.bins = append(s.bins, make([]uint64, by)...)
	copy(s.bins[by:], s.bins[:len(s.bins)-by])
	for i := 0; i < by; i++ {
		s.bins[i] = 0
	}
	s.lo -= by
}

func (s *Sketch) growUp(by int) {
	s.bins = append(s.bins, make([]uint64, by)...)
}

// collapse folds the lowest buckets together until the store fits
// maxBins again — the DDSketch collapsing-lowest policy: tail quantiles
// (the ones the paper reports) keep full accuracy, the low extreme
// degrades. Deterministic: the same values in the same order give the
// same store.
func (s *Sketch) collapse() {
	drop := len(s.bins) - s.maxBins
	if drop <= 0 {
		return
	}
	var folded uint64
	for i := 0; i <= drop; i++ {
		folded += s.bins[i]
	}
	copy(s.bins, s.bins[drop:])
	s.bins = s.bins[:s.maxBins]
	s.bins[0] = folded
	s.lo += drop
}

// Count returns how many values have been inserted.
func (s *Sketch) Count() uint64 { return s.count }

// Mean returns the exact mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the exact minimum inserted value (NaN when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact maximum inserted value (NaN when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// Quantile estimates the p-th percentile (0–100, matching Percentile).
// The estimate is within relative accuracy α of an exact order
// statistic at that rank; p = 0 and p = 100 return the exact min/max.
// Returns NaN for an empty sketch.
func (s *Sketch) Quantile(p float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := p / 100 * float64(s.count-1)
	cum := float64(s.zeros)
	if rank < cum {
		return s.min
	}
	for i, n := range s.bins {
		if n == 0 {
			continue
		}
		cum += float64(n)
		if rank < cum {
			return s.clamp(s.value(s.lo + i))
		}
	}
	return s.max
}

// clamp bounds a bucket representative by the exact extremes, so
// estimates never leave the observed value range.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Summary bundles the sketch's order statistics in the same shape
// Summarize produces from retained samples: N, exact mean and max,
// α-accurate percentiles.
func (s *Sketch) Summary() Summary {
	if s.count == 0 {
		return Summary{}
	}
	return Summary{
		N:    int(s.count),
		Mean: s.Mean(),
		P50:  s.Quantile(50),
		P95:  s.Quantile(95),
		P99:  s.Quantile(99),
		Max:  s.max,
	}
}

// Reset empties the sketch, keeping its buffers.
func (s *Sketch) Reset() {
	s.bins = s.bins[:0]
	s.lo = 0
	s.zeros, s.count, s.sum = 0, 0, 0
	s.min, s.max = math.Inf(1), math.Inf(-1)
}

// RetainedBytes is the sketch's logical stat footprint: occupied
// buckets plus the fixed header. It is a function of the distribution
// alone — capacity the dense store grew to does not count — which is
// what lets the memory-regression gate compare runs.
func (s *Sketch) RetainedBytes() int64 {
	occupied := int64(0)
	for _, n := range s.bins {
		if n != 0 {
			occupied++
		}
	}
	return 8*occupied + 64
}
