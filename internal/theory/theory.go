// Package theory implements the analytical models of the paper's
// Appendix A: the synchronous multi-resource rate recursion whose Lemma
// proves one-step feasibility and Pareto-optimal convergence within I
// steps (A.2), the additive-increase fairness equilibrium (A.3), and
// the ΣD_i/D/1 queue model bounding steady-state queues under paced
// periodic sources (A.1).
package theory

import (
	"fmt"
	"math"
	"math/rand"
)

// System is the Appendix A.2 model: I resources with capacities C,
// J paths, and an incidence matrix A (A[i][j] = true iff resource i is
// used by path j).
type System struct {
	A [][]bool  // I × J incidence
	C []float64 // per-resource target capacities, > 0
}

// Validate checks the Appendix's standing assumptions: every path uses
// at least one resource and all capacities are positive.
func (s *System) Validate() error {
	if len(s.A) == 0 || len(s.A) != len(s.C) {
		return fmt.Errorf("theory: need one capacity per resource")
	}
	j := len(s.A[0])
	if j == 0 {
		return fmt.Errorf("theory: no paths")
	}
	for i, row := range s.A {
		if len(row) != j {
			return fmt.Errorf("theory: ragged incidence row %d", i)
		}
		if s.C[i] <= 0 {
			return fmt.Errorf("theory: capacity %d not positive", i)
		}
	}
	for p := 0; p < j; p++ {
		used := false
		for i := range s.A {
			if s.A[i][p] {
				used = true
				break
			}
		}
		if !used {
			return fmt.Errorf("theory: path %d uses no resource", p)
		}
	}
	return nil
}

// Loads computes Y = A·R, the per-resource load.
func (s *System) Loads(r []float64) []float64 {
	y := make([]float64, len(s.A))
	for i, row := range s.A {
		for j, used := range row {
			if used {
				y[i] += r[j]
			}
		}
	}
	return y
}

// Feasible reports whether Y = A·R ≤ C.
func (s *System) Feasible(r []float64) bool {
	for i, y := range s.Loads(r) {
		if y > s.C[i]*(1+1e-12) {
			return false
		}
	}
	return true
}

// Step applies recursion (5)–(6): R'_j = R_j / max_i{Y_i·A_ij / C_i}.
func (s *System) Step(r []float64) []float64 {
	y := s.Loads(r)
	out := make([]float64, len(r))
	for j := range r {
		k := 0.0
		for i, row := range s.A {
			if row[j] {
				if v := y[i] / s.C[i]; v > k {
					k = v
				}
			}
		}
		if k == 0 {
			out[j] = r[j]
			continue
		}
		out[j] = r[j] / k
	}
	return out
}

// ParetoOptimal reports whether no single path's rate can grow (by more
// than a relative eps) without shrinking another: every path must cross
// at least one resource saturated to within eps.
//
// A note on Appendix A.2's Lemma: its claim (iii) — an exact fixed
// point within I steps — holds when each newly saturated resource pins
// all of its paths (e.g. a single bottleneck, or disjoint bottlenecks).
// When a pinned path shares a non-binding resource with a free path,
// the literal recursion (5)-(6) instead converges geometrically to the
// Pareto-optimal allocation (each step closes a constant fraction of
// the remaining gap), which is what the property tests verify with a
// small eps.
func (s *System) ParetoOptimal(r []float64, eps float64) bool {
	y := s.Loads(r)
	for j := range r {
		bottlenecked := false
		for i, row := range s.A {
			if row[j] && y[i] >= s.C[i]*(1-eps) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return false
		}
	}
	return true
}

// Converge iterates Step until the rate vector stabilizes, returning
// the trajectory (including the initial state). Convergence to the
// Pareto-optimal allocation is geometric; see the ParetoOptimal note.
func (s *System) Converge(r0 []float64, maxSteps int) [][]float64 {
	traj := [][]float64{append([]float64(nil), r0...)}
	cur := r0
	for step := 0; step < maxSteps; step++ {
		next := s.Step(cur)
		traj = append(traj, next)
		if maxDelta(cur, next) < 1e-12 {
			break
		}
		cur = next
	}
	return traj
}

func maxDelta(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// RandomSystem generates a connected random instance for property
// tests: up to maxI resources, maxJ paths, each path using ≥ 1 resource.
func RandomSystem(rng *rand.Rand, maxI, maxJ int) *System {
	i := rng.Intn(maxI) + 1
	j := rng.Intn(maxJ) + 1
	s := &System{A: make([][]bool, i), C: make([]float64, i)}
	for k := range s.A {
		s.A[k] = make([]bool, j)
		s.C[k] = float64(rng.Float64()*99) + 1
	}
	for p := 0; p < j; p++ {
		// Guarantee at least one resource per path.
		s.A[rng.Intn(i)][p] = true
		for k := 0; k < i; k++ {
			if rng.Float64() < 0.3 {
				s.A[k][p] = true
			}
		}
	}
	return s
}

// AIEquilibrium solves the A.3 fixed point for a single bottleneck:
// sources updating R ← R·(U_target/U) + a settle at
// R = a·(1 − U_target/U)⁻¹, equivalently U = U_target·(1 − a/R)⁻¹.
// Given n identical sources sharing capacity c, the equilibrium rate is
// R = c·U/n at utilization U; combining yields a quadratic in U.
type AIEquilibrium struct {
	UTarget float64 // η
	A       float64 // additive step, rate units
	C       float64 // bottleneck capacity
	N       int     // competing sources
}

// Solve returns the equilibrium utilization U and per-source rate R.
// From R = a/(1 − Ut/U) and n·R = U·C:
//
//	U·C/n = a·U/(U − Ut)  ⇒  U = Ut + a·n/C.
func (e AIEquilibrium) Solve() (u, r float64) {
	u = e.UTarget + e.A*float64(e.N)/e.C
	r = u * e.C / float64(e.N)
	return u, r
}

// MaxAdditiveStep returns the largest a keeping equilibrium utilization
// below 100%: a < R·(1−Ut) per Appendix A.3, expressed via capacity:
// U < 1 ⇔ a < C(1−Ut)/n.
func (e AIEquilibrium) MaxAdditiveStep() float64 {
	return e.C * (1 - e.UTarget) / float64(e.N)
}
