package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
)

func TestCDFValidation(t *testing.T) {
	if _, err := NewCDF("bad", []Point{{0, 0}}); err == nil {
		t.Error("accepted a single-point CDF")
	}
	if _, err := NewCDF("bad", []Point{{0, 0.5}, {10, 1}}); err == nil {
		t.Error("accepted a CDF not starting at 0")
	}
	if _, err := NewCDF("bad", []Point{{0, 0}, {10, 0.9}}); err == nil {
		t.Error("accepted a CDF not ending at 1")
	}
	if _, err := NewCDF("bad", []Point{{0, 0}, {10, 0.8}, {5, 1}}); err == nil {
		t.Error("accepted non-monotone sizes")
	}
	// Every comparison with NaN is false, so a NaN knot passes the
	// monotonicity check and later schedules arrivals in the past;
	// negative sizes sample to nothing.
	for name, pts := range map[string][]Point{
		"a NaN interior probability": {{0, 0}, {1000, math.NaN()}, {2000, 1}},
		"a NaN final probability":    {{0, 0}, {1000, math.NaN()}},
		"an infinite probability":    {{0, 0}, {1000, math.Inf(1)}, {2000, 1}},
		"a probability above 1":      {{0, 0}, {1000, 1.5}, {2000, 1}},
		"negative sizes":             {{-5000, 0}, {-10, 1}},
	} {
		if _, err := NewCDF("bad", pts); err == nil {
			t.Errorf("accepted %s: %v", name, pts)
		}
	}
	if _, err := NewCDF("ok", []Point{{0, 0}, {10, 0.5}, {100, 1}}); err != nil {
		t.Errorf("rejected a valid CDF: %v", err)
	}
}

func TestSampleWithinSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []*CDF{WebSearch(), FBHadoop()} {
		lo := c.points[0].Bytes
		hi := c.points[len(c.points)-1].Bytes
		for i := 0; i < 10_000; i++ {
			s := c.Sample(rng)
			if s < max64(lo, 1) || s > hi {
				t.Fatalf("%s: sample %d outside [%d, %d]", c.Name(), s, lo, hi)
			}
		}
	}
}

func TestEmpiricalMeanMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []*CDF{WebSearch(), FBHadoop()} {
		var sum float64
		const n = 200_000
		for i := 0; i < n; i++ {
			sum += float64(c.Sample(rng))
		}
		got := sum / n
		want := c.Mean()
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s: empirical mean %.0f vs analytic %.0f", c.Name(), got, want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	ws := WebSearch()
	if q := ws.Quantile(0.30); q != 20_000 {
		t.Errorf("WebSearch p30 = %d, want 20000", q)
	}
	fb := FBHadoop()
	if q := fb.Quantile(0.90); q != 120_000 {
		t.Errorf("FB_Hadoop p90 = %d, want 120000 (paper: 90%% < 120KB)", q)
	}
}

func TestFBHadoopMostlySmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fb := FBHadoop()
	small := 0
	const n = 50_000
	for i := 0; i < n; i++ {
		if fb.Sample(rng) <= 1000 {
			small++
		}
	}
	frac := float64(small) / n
	if frac < 0.7 || frac > 0.85 {
		t.Errorf("FB_Hadoop P(size ≤ 1KB) = %.2f, want ≈ 0.78", frac)
	}
}

// Property: empirical CDF at each knot matches the declared probability.
func TestCDFKnotsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := WebSearch()
		const n = 20_000
		counts := make([]int, len(c.points))
		for i := 0; i < n; i++ {
			s := c.Sample(rng)
			for j, p := range c.points {
				if s <= p.Bytes {
					counts[j]++
				}
			}
		}
		for j, p := range c.points {
			got := float64(counts[j]) / n
			if math.Abs(got-p.Prob) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func testNet(n int) *topology.Network {
	eng := sim.NewEngine()
	hcfg := host.Config{CC: hpcccc.New(hpcccc.Config{}), INT: true, BaseRTT: 13 * sim.Microsecond}
	scfg := fabric.SwitchConfig{INTEnabled: true, PFCEnabled: true}
	return topology.StarSpec{N: n}.Build(eng, hcfg, scfg)
}

func TestPoissonLoad(t *testing.T) {
	nw := testNet(8)
	var bytes int64
	var flows int
	PoissonSpec{CDF: FBHadoop(), Load: 0.3}.Install(nw, Env{
		HostRate: 100 * sim.Gbps,
		Until:    2 * sim.Millisecond,
		OnDone: func(f *host.Flow) {
			bytes += f.Size()
			flows++
		},
		Seed: 42,
	})
	nw.Eng.Run()
	if flows == 0 {
		t.Fatal("no flows generated")
	}
	// Offered load over 2 ms across 8×100G hosts at 30%:
	// 0.3 × 8 × 12.5 GB/s × 2 ms = 60 MB. The expected flow count is
	// offered/mean; the count concentrates tightly (Poisson) while the
	// byte total is noisy under the heavy-tailed size distribution.
	offered := 0.3 * 8 * (100 * sim.Gbps).BytesPerSec() * 0.002
	wantFlows := offered / FBHadoop().Mean()
	if math.Abs(float64(flows)-wantFlows)/wantFlows > 0.30 {
		t.Errorf("flows = %d, want ≈ %.0f", flows, wantFlows)
	}
	if float64(bytes) < offered/3 || float64(bytes) > offered*3 {
		t.Errorf("delivered %d bytes, offered ≈ %.0f", bytes, offered)
	}
}

func TestPoissonMaxFlows(t *testing.T) {
	nw := testNet(4)
	flows := 0
	PoissonSpec{CDF: FBHadoop(), Load: 0.5, MaxFlows: 25}.Install(nw, Env{
		HostRate: 100 * sim.Gbps,
		Until:    sim.Second,
		OnDone:   func(*host.Flow) { flows++ },
		Seed:     1,
	})
	nw.Eng.Run()
	if flows != 25 {
		t.Fatalf("flows = %d, want exactly MaxFlows = 25", flows)
	}
}

func TestIncastFanIn(t *testing.T) {
	nw := testNet(10)
	byDst := map[int64]int{}
	done := 0
	IncastSpec{FanIn: 6, Size: 20_000, LoadFrac: 0.02}.Install(nw, Env{
		HostRate: 100 * sim.Gbps,
		Until:    2 * sim.Millisecond,
		OnDone: func(f *host.Flow) {
			done++
			byDst[int64(f.Dst())]++
		},
		Seed: 9,
	})
	nw.Eng.Run()
	if done == 0 || done%6 != 0 {
		t.Fatalf("done = %d, want a multiple of FanIn=6", done)
	}
	for dst, cnt := range byDst {
		if cnt%6 != 0 {
			t.Fatalf("receiver %d got %d flows, want multiples of 6", dst, cnt)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
