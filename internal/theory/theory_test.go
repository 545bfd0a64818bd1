package theory

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// singleLink returns a one-resource system shared by j paths.
func singleLink(c float64, j int) *System {
	row := make([]bool, j)
	for i := range row {
		row[i] = true
	}
	return &System{A: [][]bool{row}, C: []float64{c}}
}

func TestValidate(t *testing.T) {
	s := singleLink(10, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &System{A: [][]bool{{false}}, C: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted a path using no resource")
	}
}

func TestSingleBottleneckOneStep(t *testing.T) {
	// "If there is a single bottleneck resource then we could achieve
	// the target utilization in one RTT."
	s := singleLink(100, 4)
	r := []float64{90, 50, 30, 10} // load 180 on capacity 100
	r1 := s.Step(r)
	y := s.Loads(r1)
	if math.Abs(y[0]-100) > 1e-9 {
		t.Fatalf("load after one step = %v, want exactly C = 100", y[0])
	}
	// Rates scale proportionally (MIMD preserves ratios).
	if math.Abs(r1[0]/r1[3]-9) > 1e-9 {
		t.Fatalf("rate ratios not preserved: %v", r1)
	}
}

// Lemma (i): after one step, rates are feasible.
func TestLemmaFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := RandomSystem(rng, 6, 8)
		r := make([]float64, len(s.A[0]))
		for j := range r {
			r[j] = rng.Float64()*200 + 1
		}
		r1 := s.Step(r)
		return s.Feasible(r1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Lemma (ii): after the first step, rates never decrease.
func TestLemmaMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := RandomSystem(rng, 6, 8)
		r := make([]float64, len(s.A[0]))
		for j := range r {
			r[j] = rng.Float64()*200 + 1
		}
		cur := s.Step(r) // step 1: now feasible
		for k := 0; k < 8; k++ {
			next := s.Step(cur)
			for j := range next {
				if next[j] < cur[j]-1e-9 {
					return false
				}
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Lemma (iii), ε-version: the recursion converges (geometrically — see
// the ParetoOptimal doc note) to a Pareto-optimal allocation, inside a
// step budget. Convergence can be slow: seed -6443384677370398290 takes
// 1 308 steps, and at 400 it is not yet Pareto-optimal at 1e-5.
func TestLemmaParetoProperty(t *testing.T) {
	const budget = 2000
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := RandomSystem(rng, 6, 8)
		r := make([]float64, len(s.A[0]))
		for j := range r {
			r[j] = rng.Float64()*200 + 1
		}
		traj := s.Converge(r, budget)
		if len(traj)-1 >= budget {
			return false
		}
		final := traj[len(traj)-1]
		if !s.Feasible(final) {
			return false
		}
		if !s.ParetoOptimal(final, 1e-5) {
			return false
		}
		// Near fixed point: one more step moves almost nothing.
		next := s.Step(final)
		return maxDelta(final, next) < 1e-5*(1+maxVal(final))
	}
	if !f(-6443384677370398290) {
		t.Fatal("seed -6443384677370398290 did not converge to a Pareto-optimal point")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// With a single bottleneck or disjoint bottlenecks the Lemma's exact
// finite-step claim does hold.
func TestLemmaExactForDisjointBottlenecks(t *testing.T) {
	s := &System{
		A: [][]bool{{true, true, false, false}, {false, false, true, true}},
		C: []float64{10, 4},
	}
	r := []float64{30, 10, 6, 6}
	r1 := s.Step(r)
	y := s.Loads(r1)
	if math.Abs(y[0]-10) > 1e-9 || math.Abs(y[1]-4) > 1e-9 {
		t.Fatalf("one step should saturate both disjoint links: %v", y)
	}
	r2 := s.Step(r1)
	if maxDelta(r1, r2) > 1e-12 {
		t.Fatalf("not a fixed point after one step: %v -> %v", r1, r2)
	}
}

func TestTwoBottleneckExample(t *testing.T) {
	// Path 0 uses both links; paths 1 and 2 use one link each.
	//   link0 (C=10): paths {0,1}
	//   link1 (C=4):  paths {0,2}
	s := &System{
		A: [][]bool{{true, true, false}, {true, false, true}},
		C: []float64{10, 4},
	}
	traj := s.Converge([]float64{8, 8, 8}, 300)
	final := traj[len(traj)-1]
	y := s.Loads(final)
	if !s.ParetoOptimal(final, 1e-5) {
		t.Fatalf("final %v not Pareto optimal (loads %v)", final, y)
	}
	// Both links end saturated: link1 binds paths 0 and 2; link0's
	// slack is taken by path 1 (geometric approach).
	if math.Abs(y[0]-10) > 1e-3 || math.Abs(y[1]-4) > 1e-3 {
		t.Fatalf("loads = %v, want both at capacity", y)
	}
}

func maxVal(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

func TestAIEquilibrium(t *testing.T) {
	// η=0.95, 50 flows on a unit-capacity link, a chosen at half the
	// stability bound: utilization stays below 1.
	e := AIEquilibrium{UTarget: 0.95, C: 1, N: 50}
	e.A = e.MaxAdditiveStep() / 2
	u, r := e.Solve()
	if u <= 0.95 || u >= 1 {
		t.Fatalf("equilibrium U = %v, want in (0.95, 1)", u)
	}
	// Check the fixed point: R = a/(1 - Ut/U).
	wantR := e.A / (1 - e.UTarget/u)
	if math.Abs(r-wantR)/wantR > 1e-9 {
		t.Fatalf("R = %v, want %v", r, wantR)
	}
	// At the bound, U hits exactly 1.
	e.A = e.MaxAdditiveStep()
	u, _ = e.Solve()
	if math.Abs(u-1) > 1e-12 {
		t.Fatalf("U at max step = %v, want 1", u)
	}
}

func TestNDD1SmallQueues(t *testing.T) {
	// Appendix A.1: 50 paced sources at 95% load keep the queue tiny —
	// mean ≈ 3 packets, P(Q > 20) ≈ 1e-9.
	rng := rand.New(rand.NewSource(11))
	m := NDD1{N: 50, Rho: 0.95}
	phases := make([]float64, m.N)
	for i := range phases {
		phases[i] = rng.Float64()
	}
	mean, pExceed := m.SimulateMeanQueue(phases, 200_000, 20)
	if mean > 6 {
		t.Fatalf("mean queue = %v, want ≈ 3 (small)", mean)
	}
	if pExceed > 1e-3 {
		t.Fatalf("P(Q>20) = %v, want ≈ 0", pExceed)
	}
}

func TestNDD1At100PercentBounded(t *testing.T) {
	// Even at 100% load periodic sources keep the queue ≈ sqrt(πN/8).
	rng := rand.New(rand.NewSource(5))
	m := NDD1{N: 50, Rho: 1.0}
	phases := make([]float64, m.N)
	for i := range phases {
		phases[i] = rng.Float64()
	}
	mean, _ := m.SimulateMeanQueue(phases, 500_000, 1<<30)
	approx := BrownianMeanAt100(50) // ≈ 4.43
	if mean > 4*approx {
		t.Fatalf("mean queue at 100%% = %v, want order of %v", mean, approx)
	}
}

func TestBrownianApprox(t *testing.T) {
	if got := BrownianMeanAt100(50); math.Abs(got-4.43) > 0.01 {
		t.Fatalf("sqrt(π·50/8) = %v, want ≈ 4.43", got)
	}
}
