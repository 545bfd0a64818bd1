package experiment

import (
	"math"
	"sort"
	"testing"

	"hpcc/internal/sim"
	"hpcc/internal/workload"
)

// bracketCheck asserts a sketch quantile against the exact sample
// multiset the run produced: the DDSketch guarantee is relative
// accuracy alpha against an exact order statistic, so the value must
// land between the bracketing order statistics at rank p/100*(n-1),
// each widened by alpha.
func bracketCheck(t *testing.T, name string, got float64, xs []float64, p, alpha float64) {
	t.Helper()
	if len(xs) == 0 {
		return
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := sorted[int(rank)] * (1 - alpha)
	hi := sorted[int(math.Ceil(rank))] * (1 + alpha)
	if got < lo-1e-9 || got > hi+1e-9 {
		t.Errorf("%s p%v = %v, want within [%v, %v] (n=%d)", name, p, got, lo, hi, len(sorted))
	}
}

// A sketch-stats run must reproduce the exact run's percentiles within
// the configured relative accuracy, on a registry-representative
// scenario (the golden dumbbell with incast).
func TestSketchStatsWithinAccuracy(t *testing.T) {
	const alpha = 0.01
	exact := runLoadT(t, dumbbellLoad())
	sc := dumbbellLoad()
	sc.SketchStats = true
	sketch := runLoadT(t, sc)

	if got, want := sketch.FCT.Count(), exact.FCT.Count(); got != want {
		t.Fatalf("flow count %d, want %d", got, want)
	}
	if got, want := sketch.FCT.ShortCount(), exact.FCT.ShortCount(); got != want {
		t.Fatalf("short-flow count %d, want %d", got, want)
	}

	sl := exact.FCT.Slowdowns()
	var shortSl []float64
	for _, r := range exact.FCT.Records {
		if r.Size <= 7_000 {
			shortSl = append(shortSl, r.Slowdown())
		}
	}
	for _, p := range []float64{50, 95, 99, 99.9} {
		bracketCheck(t, "slowdown", sketch.FCT.SlowdownQuantile(p), sl, p, alpha)
	}
	bracketCheck(t, "short slowdown", sketch.FCT.ShortSlowdownQuantile(99), shortSl, 99, alpha)

	// Queue-depth percentiles: the exact run's pooled samples are the
	// reference multiset (QueueKB is the same samples in KB).
	depths := make([]float64, len(exact.QueueKB))
	for i, kb := range exact.QueueKB {
		depths[i] = kb * 1024
	}
	bracketCheck(t, "queue depth", sketch.Queue.P50, depths, 50, alpha)
	bracketCheck(t, "queue depth", sketch.Queue.P99, depths, 99, alpha)
	if sketch.Queue.Max != exact.Queue.Max {
		t.Errorf("queue max %v, want exact %v", sketch.Queue.Max, exact.Queue.Max)
	}

	if sketch.RetainedStatBytes >= exact.RetainedStatBytes {
		t.Errorf("sketch retention %d B not below exact %d B", sketch.RetainedStatBytes, exact.RetainedStatBytes)
	}
}

// streamScenario floods a 4-host star with fixed-1KB flows — the shape
// of the bench stream-flows-4m workload — so flow count scales without
// simulation cost.
func streamScenario(flows int, sketch bool) LoadScenario {
	fixed := workload.MustCDF("fixed-1KB", []workload.Point{{Bytes: 1000, Prob: 0}, {Bytes: 1000, Prob: 1}})
	return LoadScenario{
		Scheme:      ByNameMust("hpcc"),
		Topo:        StarTopo(4),
		Traffic:     []workload.Generator{workload.PoissonSpec{CDF: fixed, Load: 0.5}},
		MaxFlows:    flows,
		Until:       sim.Second,
		Drain:       20 * sim.Millisecond,
		PFC:         true,
		Seed:        1,
		SketchStats: sketch,
	}
}

// The memory contract: sketch-mode retention is flat in the flow
// count, exact-mode retention is linear in it.
func TestSketchRetainedBytesFlatInFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 15k flows: skipped in -short")
	}
	s1 := runLoadT(t, streamScenario(3_000, true)).RetainedStatBytes
	s4 := runLoadT(t, streamScenario(12_000, true)).RetainedStatBytes
	e1 := runLoadT(t, streamScenario(3_000, false)).RetainedStatBytes
	if s4 > s1+s1/4 {
		t.Errorf("sketch retention grew with flows: %d B at 4x vs %d B (limit 1.25x)", s4, s1)
	}
	if e1 < 3_000*24 {
		t.Errorf("exact retention %d B below the per-flow floor %d B", e1, 3_000*24)
	}
	if s4 >= e1 {
		t.Errorf("sketch at 4x the flows (%d B) not below exact at 1x (%d B)", s4, e1)
	}
}
