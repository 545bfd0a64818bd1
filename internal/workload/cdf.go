// Package workload generates the paper's traffic: flow sizes drawn from
// the public WebSearch [DCTCP] and FB_Hadoop [SIGCOMM'15] distributions,
// open-loop Poisson arrivals at a target average link load, and the
// periodic many-to-one incast events of §5.3.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// Point is one knot of a piecewise-linear CDF: P(size ≤ Bytes) = Prob.
type Point struct {
	Bytes int64
	Prob  float64
}

// CDF is a piecewise-linear flow-size distribution.
type CDF struct {
	name   string
	points []Point
}

// NewCDF validates and builds a CDF. Points must have nonnegative sizes
// and probabilities in [0, 1], sorted by size with nondecreasing
// probability, starting at probability 0 and ending at 1.
func NewCDF(name string, points []Point) (*CDF, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("workload: CDF %q needs at least 2 points", name)
	}
	for i, p := range points {
		// The negated test also catches NaN, which every comparison fails.
		if p.Bytes < 0 || !(p.Prob >= 0 && p.Prob <= 1) {
			return nil, fmt.Errorf("workload: CDF %q point %d (%d bytes, probability %v) is out of range", name, i, p.Bytes, p.Prob)
		}
	}
	if points[0].Prob != 0 {
		return nil, fmt.Errorf("workload: CDF %q must start at probability 0", name)
	}
	if points[len(points)-1].Prob != 1 {
		return nil, fmt.Errorf("workload: CDF %q must end at probability 1", name)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Bytes < points[i-1].Bytes || points[i].Prob < points[i-1].Prob {
			return nil, fmt.Errorf("workload: CDF %q not monotone at point %d", name, i)
		}
	}
	return &CDF{name: name, points: points}, nil
}

// MustCDF is NewCDF that panics on invalid input (for package literals).
func MustCDF(name string, points []Point) *CDF {
	c, err := NewCDF(name, points)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the distribution's name.
func (c *CDF) Name() string { return c.name }

// Sample draws one flow size by inverse-transform sampling with linear
// interpolation inside segments. Sizes are at least 1 byte.
func (c *CDF) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].Prob >= u })
	if i == 0 {
		i = 1
	}
	lo, hi := c.points[i-1], c.points[i]
	var size float64
	if hi.Prob == lo.Prob {
		size = float64(hi.Bytes)
	} else {
		frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
		size = float64(lo.Bytes) + frac*float64(hi.Bytes-lo.Bytes)
	}
	if size < 1 {
		size = 1
	}
	return int64(size)
}

// Mean returns the distribution's expected flow size in bytes
// (trapezoidal, matching the linear interpolation of Sample).
func (c *CDF) Mean() float64 {
	mean := 0.0
	for i := 1; i < len(c.points); i++ {
		lo, hi := c.points[i-1], c.points[i]
		dp := hi.Prob - lo.Prob
		mean += dp * float64(lo.Bytes+hi.Bytes) / 2
	}
	return mean
}

// Quantile returns the size at cumulative probability p.
func (c *CDF) Quantile(p float64) int64 {
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].Prob >= p })
	if i == 0 {
		i = 1
	}
	if i >= len(c.points) {
		return c.points[len(c.points)-1].Bytes
	}
	lo, hi := c.points[i-1], c.points[i]
	if hi.Prob == lo.Prob {
		return hi.Bytes
	}
	frac := (p - lo.Prob) / (hi.Prob - lo.Prob)
	return lo.Bytes + int64(frac*float64(hi.Bytes-lo.Bytes))
}

// WebSearch returns the web-search workload of the DCTCP paper, the
// trace the HPCC testbed evaluation uses (§5.1). Knots are anchored at
// the flow-size bucket edges printed on the paper's Figure 10 x-axis.
func WebSearch() *CDF {
	return MustCDF("WebSearch", []Point{
		{0, 0},
		{6_700, 0.15},
		{20_000, 0.30},
		{30_000, 0.40},
		{50_000, 0.53},
		{73_000, 0.60},
		{200_000, 0.70},
		{1_000_000, 0.80},
		{2_000_000, 0.90},
		{5_000_000, 0.97},
		{30_000_000, 1.0},
	})
}

// FBHadoop returns the Facebook Hadoop-cluster workload [SIGCOMM'15]
// used by the simulation evaluation (§5.3): dominated by sub-KB flows
// ("90% of the flows are shorter than 120KB") with a heavy tail. Knots
// are anchored at Figure 11's bucket edges.
func FBHadoop() *CDF {
	return MustCDF("FB_Hadoop", []Point{
		{0, 0},
		{324, 0.30},
		{400, 0.40},
		{500, 0.50},
		{600, 0.60},
		{700, 0.70},
		{1_000, 0.78},
		{7_000, 0.83},
		{46_000, 0.86},
		{120_000, 0.90},
		{1_000_000, 0.95},
		{10_000_000, 1.0},
	})
}
