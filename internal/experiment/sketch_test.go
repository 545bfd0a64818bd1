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
// scenario (the dumbbell with incast the shard goldens use).
func TestSketchStatsWithinAccuracy(t *testing.T) {
	const alpha = 0.01
	exact := runLoadT(t, dumbbellScenario(1))
	sc := dumbbellScenario(1)
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

// Sharded sketch runs merge per-shard sketches by exact bucket
// addition, so every reported statistic — quantiles, counts, retained
// bytes — must be identical across 1/2/4/8 engines. (Float sums/means
// are the one order-sensitive piece and are deliberately not compared.)
func TestShardedSketchInvariance(t *testing.T) {
	base := func() LoadScenario {
		sc := dumbbellScenario(1)
		sc.SketchStats = true
		return sc
	}
	ref := runLoadT(t, base())
	type key struct {
		name string
		v    float64
	}
	fingerprint := func(r *LoadResult) []key {
		ks := []key{
			{"flows", float64(r.FCT.Count())},
			{"short-flows", float64(r.FCT.ShortCount())},
			{"short-p99", r.FCT.ShortSlowdownQuantile(99)},
			{"short-lat-p95", r.FCT.ShortLatencyQuantile(95)},
			{"queue-n", float64(r.Queue.N)},
			{"queue-p50", r.Queue.P50},
			{"queue-p95", r.Queue.P95},
			{"queue-p99", r.Queue.P99},
			{"queue-max", r.Queue.Max},
			{"retained", float64(r.RetainedStatBytes)},
		}
		for _, p := range []float64{50, 95, 99, 99.9} {
			ks = append(ks, key{"slowdown", r.FCT.SlowdownQuantile(p)})
		}
		for _, b := range r.FCT.Buckets(nil) {
			ks = append(ks, key{"bucket-n", float64(b.Stats.N)}, key{"bucket-p95", b.Stats.P95})
		}
		return ks
	}
	want := fingerprint(ref)
	for _, shards := range []int{2, 4, 8} {
		sc := base()
		sc.Shards = shards
		r := runLoadT(t, sc)
		if r.Shards < 2 {
			t.Fatalf("shards=%d: ran on %d engines", shards, r.Shards)
		}
		got := fingerprint(r)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("shards=%d: %s = %v, want %v (serial)",
					shards, got[i].name, got[i].v, want[i].v)
			}
		}
	}
}

// streamScenario floods a 4-host star with fixed-1KB flows — the
// hpccbench stream-flows fixture — so flow count scales without
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
