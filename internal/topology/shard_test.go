package topology

import (
	"testing"

	"hpcc/internal/cc/hpcc"
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/sim"
)

func shardCfg() (host.Config, fabric.SwitchConfig) {
	hcfg := host.Config{CC: hpcc.New(hpcc.Config{}), INT: true, BaseRTT: 7 * sim.Microsecond, Seed: 1}
	scfg := fabric.SwitchConfig{PFCEnabled: true, INTEnabled: true, Seed: 1}
	return hcfg, scfg
}

// flowFates captures everything observable about a run's flows plus
// fabric counters, for byte-for-byte comparison across shard counts.
type flowFate struct {
	id       int32
	acked    int64
	fct      sim.Time
	done     bool
	pkts     uint64
	rtx      uint64
	finished sim.Time
}

func fates(t *testing.T, nw *Network) []flowFate {
	t.Helper()
	var out []flowFate
	for _, h := range nw.Hosts {
		for id, f := range h.Flows() {
			out = append(out, flowFate{
				id: id, acked: f.Acked(), fct: f.FCT(), done: f.Done(),
				pkts: f.PacketsSent(), rtx: f.Retransmits(), finished: f.Finished(),
			})
		}
	}
	// Map order is random; sort by ID for comparison.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].id < out[j-1].id; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// dumbbellWorkload starts a congested bidirectional mix: every left
// host ships to a right host and vice versa, plus a 3-to-1 incast onto
// one receiver, so the bottleneck link, PFC and INT all engage.
func dumbbellWorkload(nw *Network) {
	pairs := len(nw.Hosts) / 2
	for i := 0; i < pairs; i++ {
		nw.StartFlow(i, pairs+i, 200_000, nil)
	}
	for i := 1; i < pairs; i++ {
		nw.StartFlow(pairs+i, i, 120_000, nil)
	}
	for i := 1; i < 4; i++ {
		nw.StartFlow(i, pairs, 150_000, nil) // incast onto host `pairs`
	}
}

// A 2-shard (and 3-shard) dumbbell run must be byte-identical to the
// single-engine run: same per-flow completion times, packet counts,
// drops and PFC pause totals at the same seed.
func TestShardDumbbellEquivalence(t *testing.T) {
	const horizon = 40 * sim.Millisecond
	run := func(shards int) ([]flowFate, uint64, sim.Time) {
		hcfg, scfg := shardCfg()
		eng := sim.NewEngine()
		nw := Dumbbell(eng, 6, 100*sim.Gbps, 100*sim.Gbps, sim.Microsecond, hcfg, scfg)
		if shards > 1 {
			sh, err := Shard(nw, shards)
			if err != nil {
				t.Fatalf("Shard(%d): %v", shards, err)
			}
			if sh.Lookahead != sim.Microsecond {
				t.Fatalf("lookahead = %v, want 1us", sh.Lookahead)
			}
			dumbbellWorkload(nw)
			sh.Group.RunUntil(horizon)
		} else {
			dumbbellWorkload(nw)
			eng.RunUntil(horizon)
		}
		var paused sim.Time
		for _, sw := range nw.Switches {
			for _, p := range sw.Ports() {
				paused += p.PausedFor(fabric.PrioData)
			}
		}
		return fates(t, nw), nw.TotalDrops(), paused
	}

	base, drops, paused := run(1)
	for _, k := range []int{2, 3} {
		got, gd, gp := run(k)
		if len(got) != len(base) {
			t.Fatalf("%d shards: %d flows, want %d", k, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("%d shards: flow %d diverged:\n  1 shard: %+v\n  %d shards: %+v",
					k, base[i].id, base[i], k, got[i])
			}
		}
		if gd != drops || gp != paused {
			t.Fatalf("%d shards: drops/paused = %d/%v, want %d/%v", k, gd, gp, drops, paused)
		}
		if !base[0].done {
			t.Fatal("workload produced no completed flows — test is vacuous")
		}
	}
}

// The partition of the CI FatTree: hosts balance across shards, the
// lookahead is the 1us link delay, and aggs/cores spread over shards.
func TestShardFatTreePartition(t *testing.T) {
	hcfg, scfg := shardCfg()
	eng := sim.NewEngine()
	nw := FatTree(eng, ScaledFatTree(), hcfg, scfg)
	sh, err := Shard(nw, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Engines) != 4 {
		t.Fatalf("engines = %d, want 4", len(sh.Engines))
	}
	counts := make([]int, 4)
	for _, s := range sh.HostShard {
		counts[s]++
	}
	for i, c := range counts {
		if c != 8 { // 32 hosts, 4 ToR clusters of 8
			t.Fatalf("shard %d has %d hosts, want 8 (%v)", i, c, counts)
		}
	}
	if sh.Lookahead != sim.Microsecond {
		t.Fatalf("lookahead = %v, want 1us", sh.Lookahead)
	}
	if sh.BoundaryPorts == 0 {
		t.Fatal("no boundary ports on a sharded FatTree")
	}
}

// Topology-aware placement of bare switch clusters: aggs go with the
// shard whose ToRs they serve and cores follow the aggs, which must
// yield strictly fewer boundary ports than the old round-robin spread
// on the FatTree, and never more on the Pod.
func TestShardBarePlacementCutsBoundary(t *testing.T) {
	// ScaledFatTree: 4 ToR clusters, 4 aggs fully meshed to the ToRs,
	// 2 cores fully meshed to the aggs. Round-robin scattered aggs and
	// cores across shards, making every agg-core link a potential
	// boundary: 24 boundary ports at k=2 and 36 at k=4. Adjacency
	// placement keeps all agg-core links on one shard, leaving only the
	// unavoidable agg-ToR crossings: 4 aggs x (k-1)/k of their 4 ToR
	// links, both directions.
	for _, tc := range []struct {
		k, want, roundRobin int
	}{
		{2, 16, 24},
		{4, 24, 36},
	} {
		hcfg, scfg := shardCfg()
		nw := FatTree(sim.NewEngine(), ScaledFatTree(), hcfg, scfg)
		sh, err := Shard(nw, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if sh.BoundaryPorts != tc.want {
			t.Fatalf("fattree k=%d: %d boundary ports, want %d", tc.k, sh.BoundaryPorts, tc.want)
		}
		if sh.BoundaryPorts >= tc.roundRobin {
			t.Fatalf("fattree k=%d: %d boundary ports, not below round-robin's %d",
				tc.k, sh.BoundaryPorts, tc.roundRobin)
		}
	}

	// The testbed Pod has one agg tied 2-2 between the two ToR-pair
	// clusters: no placement beats any other, so the count must simply
	// not regress past the round-robin figure (4 boundary ports).
	hcfg, scfg := shardCfg()
	nw := Pod(sim.NewEngine(), PodSpec{}, hcfg, scfg)
	sh, err := Shard(nw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sh.BoundaryPorts > 4 {
		t.Fatalf("pod: %d boundary ports, round-robin had 4", sh.BoundaryPorts)
	}
}

// Star has a single host cluster at ToR granularity; sharding now
// refines to per-host granularity (the switch stays whole, hosts
// split), so a 5-host star must partition — and replay the serial run
// byte-for-byte, incast and all.
func TestShardStarPerHost(t *testing.T) {
	const horizon = 40 * sim.Millisecond
	starWorkload := func(nw *Network) {
		n := len(nw.Hosts)
		for i := 1; i < n; i++ {
			nw.StartFlow(i, 0, 150_000, nil) // incast onto host 0
		}
		for i := 1; i < n; i++ {
			nw.StartFlow(0, i, 80_000, nil)
		}
	}
	run := func(shards int) []flowFate {
		hcfg, scfg := shardCfg()
		eng := sim.NewEngine()
		nw := Star(eng, 5, 100*sim.Gbps, sim.Microsecond, hcfg, scfg)
		if shards > 1 {
			sh, err := Shard(nw, shards)
			if err != nil {
				t.Fatalf("Shard(star, %d): %v", shards, err)
			}
			if len(sh.Engines) != shards {
				t.Fatalf("star k=%d: %d engines", shards, len(sh.Engines))
			}
			if sh.Lookahead != sim.Microsecond {
				t.Fatalf("lookahead = %v, want 1us", sh.Lookahead)
			}
			starWorkload(nw)
			if err := sh.Group.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}
		} else {
			starWorkload(nw)
			eng.RunUntil(horizon)
		}
		return fates(t, nw)
	}

	base := run(1)
	if !base[0].done {
		t.Fatal("workload produced no completed flows — test is vacuous")
	}
	for _, k := range []int{2, 4} {
		got := run(k)
		if len(got) != len(base) {
			t.Fatalf("%d shards: %d flows, want %d", k, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("%d shards: flow %d diverged:\n  1 shard: %+v\n  %d shards: %+v",
					k, base[i].id, base[i], k, got[i])
			}
		}
	}
}

// A fabric with a single host cannot partition at any granularity:
// sharding must refuse and leave the network runnable.
func TestShardSingleHostRefuses(t *testing.T) {
	hcfg, scfg := shardCfg()
	eng := sim.NewEngine()
	nw := Star(eng, 1, 100*sim.Gbps, sim.Microsecond, hcfg, scfg)
	if _, err := Shard(nw, 2); err == nil {
		t.Fatal("Shard(1-host star) succeeded, want error")
	}
	done := false
	nw.StartFlow(0, 0, 0, func(*host.Flow) { done = true })
	eng.Run()
	if !done {
		t.Fatal("network unusable after refused Shard")
	}
}
