package experiment

import (
	"math"
	"sort"
	"testing"

	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

func dumbbellScenario(shards int) LoadScenario {
	return LoadScenario{
		Scheme: ByNameMust("hpcc"),
		Topo: topology.DumbbellSpec{Pairs: 4, HostRate: 100 * sim.Gbps,
			CoreRate: 100 * sim.Gbps, Delay: sim.Microsecond},
		Traffic: []workload.Generator{
			workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.6},
			workload.IncastSpec{FanIn: 3, Size: 200_000, LoadFrac: 0.02},
		},
		MaxFlows: 150,
		Until:    2 * sim.Millisecond,
		Drain:    10 * sim.Millisecond,
		PFC:      true,
		Seed:     3,
		Shards:   shards,
	}
}

// runLoadT is RunLoad with test-fatal error handling.
func runLoadT(t *testing.T, s LoadScenario) *LoadResult {
	t.Helper()
	r, err := RunLoad(s)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	return r
}

// canonicalize sorts the order-independent record and sample lists so
// runs that collect them in different (but equivalent) orders compare
// byte-for-byte.
func canonicalize(r *LoadResult) {
	sort.Slice(r.FCT.Records, func(i, j int) bool {
		a, b := r.FCT.Records[i], r.FCT.Records[j]
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		if a.FCT != b.FCT {
			return a.FCT < b.FCT
		}
		return a.Ideal < b.Ideal
	})
	sort.Float64s(r.QueueKB)
}

func compareRuns(t *testing.T, name string, base, got *LoadResult) {
	t.Helper()
	canonicalize(base)
	canonicalize(got)
	if len(got.FCT.Records) != len(base.FCT.Records) {
		t.Fatalf("%s: %d FCT records, want %d", name, len(got.FCT.Records), len(base.FCT.Records))
	}
	for i := range base.FCT.Records {
		if got.FCT.Records[i] != base.FCT.Records[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", name, i, got.FCT.Records[i], base.FCT.Records[i])
		}
	}
	if len(got.QueueKB) != len(base.QueueKB) {
		t.Fatalf("%s: %d queue samples, want %d", name, len(got.QueueKB), len(base.QueueKB))
	}
	for i := range base.QueueKB {
		if got.QueueKB[i] != base.QueueKB[i] {
			t.Fatalf("%s: queue sample %d = %v, want %v", name, i, got.QueueKB[i], base.QueueKB[i])
		}
	}
	if got.Queue != base.Queue {
		t.Fatalf("%s: queue summary %+v, want %+v", name, got.Queue, base.Queue)
	}
	if got.PauseFrac != base.PauseFrac && !(math.IsNaN(got.PauseFrac) && math.IsNaN(base.PauseFrac)) {
		t.Fatalf("%s: pause %v, want %v", name, got.PauseFrac, base.PauseFrac)
	}
	if got.Drops != base.Drops || got.Started != base.Started ||
		got.Censored != base.Censored || got.DataPackets != base.DataPackets ||
		got.PortPackets != base.PortPackets || got.Elapsed != base.Elapsed {
		t.Fatalf("%s: counters (drops %d started %d censored %d data %d port %d elapsed %v)"+
			" want (drops %d started %d censored %d data %d port %d elapsed %v)",
			name, got.Drops, got.Started, got.Censored, got.DataPackets, got.PortPackets, got.Elapsed,
			base.Drops, base.Started, base.Censored, base.DataPackets, base.PortPackets, base.Elapsed)
	}
}

// The golden sharding contract: 2-shard and 4-shard dumbbell runs are
// byte-identical to the single-engine run at the same seed — for HPCC
// and for DCQCN, whose switches draw ECN marks from an RNG and whose
// flows run per-flow timers.
func TestShardedDumbbellGolden(t *testing.T) {
	for _, scheme := range []string{"hpcc", "dcqcn"} {
		mk := func(shards int) LoadScenario {
			s := dumbbellScenario(shards)
			s.Scheme = ByNameMust(scheme)
			return s
		}
		base := runLoadT(t, mk(1))
		if base.Shards != 1 || len(base.FCT.Records) == 0 {
			t.Fatalf("%s baseline: shards=%d records=%d", scheme, base.Shards, len(base.FCT.Records))
		}
		for _, k := range []int{2, 4} {
			got := runLoadT(t, mk(k))
			// The dumbbell has 2 rack-level host clusters; asking for more
			// engages the per-host refinement (each host its own cluster, the
			// cores one switch cluster), so 4 shards really means 4 engines.
			if got.Shards != k {
				t.Fatalf("%s: %d-shard run engaged %d shards, want %d", scheme, k, got.Shards, k)
			}
			if got.Sync.Epochs == 0 {
				t.Fatalf("%s: %d-shard run counted no epochs", scheme, k)
			}
			compareRuns(t, scheme+"-dumbbell-shards", base, got)
		}
	}
}

// Sharding the CI FatTree (multi-hop boundaries through aggs and
// cores, ECMP in play) must also match the single-engine run.
func TestShardedFatTreeGolden(t *testing.T) {
	mk := func(shards int) LoadScenario {
		return LoadScenario{
			Scheme:      ByNameMust("hpcc"),
			Topo:        FatTreeTopo(topology.ScaledFatTree()),
			Traffic:     []workload.Generator{workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.5}},
			MaxFlows:    120,
			Until:       sim.Millisecond,
			Drain:       10 * sim.Millisecond,
			PFC:         true,
			Seed:        1,
			BufferBytes: BufferFor(32),
			Shards:      shards,
		}
	}
	base := runLoadT(t, mk(1))
	if len(base.FCT.Records) == 0 {
		t.Fatal("baseline produced no flows")
	}
	for _, k := range []int{2, 4} {
		got := runLoadT(t, mk(k))
		if got.Shards != k {
			t.Fatalf("requested %d shards, engaged %d", k, got.Shards)
		}
		compareRuns(t, "fattree-shards", base, got)
	}
}

// The canonical-rank golden: a *saturated* multipath FatTree — ECMP
// spraying across aggs and cores at 95% Poisson load plus a 16:1
// incast — is where same-picosecond cross-shard deliveries into one
// node actually happen. Before the canonical (time, key, seq) rank,
// those ties fell back to arming order and the sharded run drifted at
// picosecond granularity; now Shards 1, 2 and 4 must match
// byte-for-byte.
func TestShardedSaturatedMultipathGolden(t *testing.T) {
	mk := func(shards int) LoadScenario {
		return LoadScenario{
			Scheme: ByNameMust("hpcc"),
			Topo:   FatTreeTopo(topology.ScaledFatTree()),
			Traffic: []workload.Generator{
				workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.95},
				workload.IncastSpec{FanIn: 16, Size: 500_000, LoadFrac: 0.1},
			},
			MaxFlows:    400,
			Until:       2 * sim.Millisecond,
			Drain:       15 * sim.Millisecond,
			PFC:         true,
			Seed:        5,
			BufferBytes: BufferFor(32),
			Shards:      shards,
		}
	}
	base := runLoadT(t, mk(1))
	if len(base.FCT.Records) == 0 {
		t.Fatal("saturated baseline produced no flows — test is vacuous")
	}
	for _, k := range []int{2, 4, 8} {
		got := runLoadT(t, mk(k))
		if got.Shards != k {
			t.Fatalf("requested %d shards, engaged %d", k, got.Shards)
		}
		compareRuns(t, "saturated-shards", base, got)
	}
}

// Closed-loop traffic and observer attachment both fall back to a
// single engine — silently, with identical results.
func TestShardedFallbacks(t *testing.T) {
	s := dumbbellScenario(2)
	s.Traffic = append(s.Traffic, workload.AllToAllSpec{Size: 5_000})
	r := runLoadT(t, s)
	if r.Shards != 1 {
		t.Fatalf("closed-loop traffic ran on %d shards, want fallback to 1", r.Shards)
	}

	s2 := dumbbellScenario(2)
	var qs []stats.TimePoint
	s2.Obs.OnQueue = func(tp stats.TimePoint) { qs = append(qs, tp) }
	r2 := runLoadT(t, s2)
	if r2.Shards != 1 {
		t.Fatalf("observer run used %d shards, want fallback to 1", r2.Shards)
	}
	if len(qs) == 0 {
		t.Fatal("observer saw no samples in fallback mode")
	}

	// A flat star used to be a fallback case; per-host sharding now
	// partitions it (each host its own cluster, the hub switch whole),
	// still byte-identical to the serial run.
	s3 := dumbbellScenario(2)
	s3.Topo = StarTopo(8)
	serial := s3
	serial.Shards = 1
	base3 := runLoadT(t, serial)
	r3 := runLoadT(t, s3)
	if r3.Shards != 2 {
		t.Fatalf("star ran on %d shards, want 2", r3.Shards)
	}
	compareRuns(t, "star-per-host", base3, r3)

	// A single-host fabric genuinely cannot partition.
	s4 := dumbbellScenario(2)
	s4.Topo = StarTopo(1)
	s4.Traffic = nil
	if r4 := runLoadT(t, s4); r4.Shards != 1 {
		t.Fatalf("1-host star ran on %d shards, want 1", r4.Shards)
	}
}

// Bounded queue-sample retention: the cap must bound QueueKB however
// long the horizon, and — because thinning is by tick index, which all
// monitors share — a capped sharded run must retain exactly the same
// sample multiset as the capped single-engine run.
func TestQueueSampleCapSharded(t *testing.T) {
	const capTicks = 16
	mk := func(shards int) LoadScenario {
		s := dumbbellScenario(shards)
		s.QueueSampleCap = capTicks
		return s
	}
	base := runLoadT(t, mk(1))
	// 8 edge ports on the 4-pair dumbbell: the retained samples are
	// rows × ports.
	if len(base.QueueKB) == 0 || len(base.QueueKB) > capTicks*8 {
		t.Fatalf("capped run retained %d samples, want (0, %d]", len(base.QueueKB), capTicks*8)
	}
	uncapped := runLoadT(t, dumbbellScenario(1))
	if len(uncapped.QueueKB) <= len(base.QueueKB) {
		t.Fatalf("cap retained %d samples but uncapped has %d — cap never engaged",
			len(base.QueueKB), len(uncapped.QueueKB))
	}
	got := runLoadT(t, mk(2))
	if got.Shards != 2 {
		t.Fatalf("capped sharded run engaged %d shards, want 2", got.Shards)
	}
	compareRuns(t, "queue-cap-sharded", base, got)
}

// Bounded completed-flow retention must not change any aggregate.
func TestCompletedWindowAccounting(t *testing.T) {
	base := runLoadT(t, dumbbellScenario(1))
	s := dumbbellScenario(1)
	s.CompletedWindow = 4
	got := runLoadT(t, s)
	compareRuns(t, "completed-window", base, got)
	s.Shards = 2
	gotSharded := runLoadT(t, s)
	compareRuns(t, "completed-window-sharded", base, gotSharded)
}
