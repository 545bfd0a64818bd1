package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The core guarantee: every quantile estimate is within the configured
// relative accuracy of the exact order statistics bracketing that rank,
// across distribution shapes (uniform, exponential, lognormal,
// heavy-tail Pareto, constant, and slowdown-like >= 1 values).
func TestSketchAccuracyProperty(t *testing.T) {
	dists := map[string]func(r *rand.Rand) float64{
		"uniform":   func(r *rand.Rand) float64 { return r.Float64() * 100 },
		"exp":       func(r *rand.Rand) float64 { return r.ExpFloat64() * 10 },
		"lognormal": func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64() * 2) },
		"pareto":    func(r *rand.Rand) float64 { return math.Pow(r.Float64()+1e-12, -0.7) },
		"constant":  func(r *rand.Rand) float64 { return 42 },
		"slowdown":  func(r *rand.Rand) float64 { return 1 + r.ExpFloat64()*3 },
	}
	ps := []float64{1, 5, 25, 50, 75, 90, 95, 99, 99.9}
	for name, gen := range dists {
		for _, alpha := range []float64{0.01, 0.05} {
			rng := rand.New(rand.NewSource(7))
			sk := NewSketch(alpha)
			var xs []float64
			for i := 0; i < 5000; i++ {
				v := gen(rng)
				xs = append(xs, v)
				sk.Add(v)
			}
			sort.Float64s(xs)
			for _, p := range ps {
				got := sk.Quantile(p)
				rank := p / 100 * float64(len(xs)-1)
				lo := xs[int(rank)] * (1 - alpha)
				hi := xs[int(math.Ceil(rank))] * (1 + alpha)
				if got < lo-1e-9 || got > hi+1e-9 {
					t.Errorf("%s α=%v p%v: got %g, want within [%g, %g]", name, alpha, p, got, lo, hi)
				}
			}
			if sk.Count() != 5000 {
				t.Fatalf("%s: count %d", name, sk.Count())
			}
		}
	}
}

// Hot-path contract: once the value range has been seen, Add
// allocates nothing.
func TestSketchAllocFreeAfterWarmup(t *testing.T) {
	sk := NewSketch(0.01)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		sk.Add(math.Exp(rng.NormFloat64() * 2))
	}
	if n := testing.AllocsPerRun(200, func() {
		sk.Add(1 + rng.Float64()*100)
	}); n > 0 {
		t.Errorf("Add allocates %.1f/op after warmup", n)
	}
}

// The collapsing store bounds memory under pathological value ranges:
// counts survive, the store stays within maxBins, and upper quantiles
// keep their accuracy (collapse folds the lowest buckets only).
func TestSketchCollapseBoundsStore(t *testing.T) {
	sk := newSketchMax(0.01, 64)
	rng := rand.New(rand.NewSource(5))
	var xs []float64
	for i := 0; i < 3000; i++ {
		v := math.Pow(10, rng.Float64()*12-6) // 1e-6 .. 1e6
		xs = append(xs, v)
		sk.Add(v)
	}
	if len(sk.bins) > 64 {
		t.Fatalf("store holds %d bins, cap 64", len(sk.bins))
	}
	if sk.Count() != 3000 {
		t.Fatalf("collapse lost values: count %d", sk.Count())
	}
	sort.Float64s(xs)
	// Collapse folds the LOWEST buckets, so only quantiles inside the
	// retained top span keep full accuracy. With 64 retained buckets at
	// α = 1%, that span covers ~max/3.6 upward — p99.5 is safely inside.
	for _, p := range []float64{99.5, 99.9} {
		got := sk.Quantile(p)
		rank := p / 100 * float64(len(xs)-1)
		lo, hi := xs[int(rank)]*0.99, xs[int(math.Ceil(rank))]*1.01
		if got < lo || got > hi {
			t.Errorf("p%v after collapse: got %g, want within [%g, %g]", p, got, lo, hi)
		}
	}
	// Collapsed quantiles still behave: monotone in p, bounded by the
	// exact extremes.
	prev := sk.Quantile(0)
	for p := 5.0; p <= 100; p += 5 {
		v := sk.Quantile(p)
		if v < prev || v < sk.Min() || v > sk.Max() {
			t.Fatalf("collapsed quantiles not monotone at p%v: %g after %g", p, v, prev)
		}
		prev = v
	}
	if sk.Max() != xs[len(xs)-1] || sk.Min() != xs[0] {
		t.Errorf("extremes drifted: min %g max %g", sk.Min(), sk.Max())
	}
}

func TestSketchEmptyAndExtremes(t *testing.T) {
	sk := NewSketch(0)
	if !math.IsNaN(sk.Quantile(50)) || !math.IsNaN(sk.Min()) || !math.IsNaN(sk.Max()) {
		t.Error("empty sketch must report NaN order statistics")
	}
	if s := sk.Summary(); s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
	sk.Add(0)
	sk.Add(5)
	if sk.Quantile(0) != 0 || sk.Quantile(100) != 5 {
		t.Errorf("p0/p100 = %g/%g, want exact extremes 0/5", sk.Quantile(0), sk.Quantile(100))
	}
	if sk.zeros != 1 {
		t.Errorf("zero bucket = %d", sk.zeros)
	}
	sk.Reset()
	if sk.Count() != 0 || len(sk.bins) != 0 {
		t.Error("Reset did not empty the sketch")
	}
}

// Summary must agree with Summarize over the same stream to within the
// accuracy bound (mean and max exactly).
func TestSketchSummaryMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sk := NewSketch(0.01)
	var xs []float64
	for i := 0; i < 3000; i++ {
		v := 1 + rng.ExpFloat64()*5
		xs = append(xs, v)
		sk.Add(v)
	}
	exact := Summarize(xs)
	got := sk.Summary()
	if got.N != exact.N || got.Max != exact.Max {
		t.Fatalf("N/Max: %+v vs %+v", got, exact)
	}
	if math.Abs(got.Mean-exact.Mean) > 1e-9 {
		t.Errorf("mean %g vs %g", got.Mean, exact.Mean)
	}
	for _, q := range []struct{ got, want float64 }{{got.P50, exact.P50}, {got.P95, exact.P95}, {got.P99, exact.P99}} {
		if math.Abs(q.got-q.want)/q.want > 0.011 {
			t.Errorf("quantile %g vs exact %g beyond α", q.got, q.want)
		}
	}
}
