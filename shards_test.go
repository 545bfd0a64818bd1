package hpcc_test

import (
	"encoding/json"
	"testing"
	"time"

	"hpcc"
)

// clearSyncFields zeroes the fields that legitimately differ between a
// serial run and a sharded one — engine count,
// the engines' own counters and synchronization accounting — so the
// rest of the SimResult can be compared byte-for-byte as JSON.
func clearSyncFields(r *hpcc.SimResult) {
	r.ShardsUsed = 0
	r.Events = 0
	r.PendingHighWater = 0
	r.Deliveries = 0
	r.OffLane = 0
	r.Epochs = 0
	r.SyncOverhead = 0
}

// The public sharding contract: Experiment.Run with Shards 2 and 4
// produces a byte-identical SimResult (JSON and all) to the
// single-engine run at the same seed.
func TestExperimentShardsByteIdentical(t *testing.T) {
	mk := func(shards int) hpcc.Experiment {
		return hpcc.Experiment{
			Scheme:   "hpcc",
			Topology: hpcc.Dumbbell{Pairs: 4},
			Traffic: []hpcc.Traffic{
				hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.6},
				hpcc.Incast{FanIn: 3, FlowSizeBytes: 200_000, LoadFraction: 0.02},
			},
			Horizon:  2 * time.Millisecond,
			Drain:    10 * time.Millisecond,
			MaxFlows: 120,
			Shards:   shards,
			Seed:     7,
		}
	}
	base, err := mk(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if base.Flows == 0 {
		t.Fatal("baseline completed no flows — test is vacuous")
	}
	if base.ShardsUsed != 1 {
		t.Fatalf("baseline ShardsUsed = %d, want 1", base.ShardsUsed)
	}
	if base.Epochs != 0 {
		t.Fatalf("serial run reports sync stats: epochs=%d", base.Epochs)
	}
	clearSyncFields(base)
	want, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		res, err := mk(k).Run()
		if err != nil {
			t.Fatal(err)
		}
		// The dumbbell has 2 rack-level clusters; Shards=4 engages the
		// per-host refinement and really runs 4 engines.
		if res.ShardsUsed != k {
			t.Fatalf("Shards=%d: ShardsUsed = %d, want %d", k, res.ShardsUsed, k)
		}
		if res.Epochs == 0 {
			t.Fatalf("Shards=%d: sharded run counted no epochs", k)
		}
		clearSyncFields(res)
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("Shards=%d SimResult diverged:\n got %s\nwant %s", k, got, want)
		}
	}
}

// Sharded execution is best-effort; the result must say how many
// engines actually ran so a fallback is never silent. Closed-loop
// traffic (AllToAll), observers and non-partitionable topologies
// (Star) all run on one engine regardless of the request.
func TestExperimentShardsUsedReportsFallback(t *testing.T) {
	run := func(e hpcc.Experiment) *hpcc.SimResult {
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	closed := run(hpcc.Experiment{
		Topology: hpcc.Dumbbell{Pairs: 2},
		Traffic:  []hpcc.Traffic{hpcc.AllToAll{FlowSizeBytes: 5_000}},
		Horizon:  time.Millisecond,
		Shards:   4,
	})
	if closed.ShardsUsed != 1 {
		t.Fatalf("closed-loop run reports ShardsUsed = %d, want 1", closed.ShardsUsed)
	}
	// A flat star used to be a fallback case; per-host sharding now
	// partitions it, so the request is honored.
	star := run(hpcc.Experiment{
		Topology: hpcc.Star{Hosts: 6},
		Traffic:  []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.2}},
		Horizon:  time.Millisecond,
		MaxFlows: 20,
		Shards:   4,
	})
	if star.ShardsUsed != 4 {
		t.Fatalf("star run reports ShardsUsed = %d, want 4", star.ShardsUsed)
	}
	sharded := run(hpcc.Experiment{
		Topology: hpcc.Dumbbell{Pairs: 4},
		Traffic:  []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.4}},
		Horizon:  time.Millisecond,
		MaxFlows: 40,
		Shards:   2,
	})
	if sharded.ShardsUsed != 2 {
		t.Fatalf("partitionable run reports ShardsUsed = %d, want 2", sharded.ShardsUsed)
	}
}

// A FatTree run with the bounded completed-flow window and shards must
// also match the unbounded single-engine result.
func TestExperimentShardsFatTree(t *testing.T) {
	mk := func(shards, window int) hpcc.Experiment {
		return hpcc.Experiment{
			Scheme:              "hpcc",
			Topology:            hpcc.FatTree{},
			Traffic:             []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.5}},
			Horizon:             time.Millisecond,
			Drain:               8 * time.Millisecond,
			MaxFlows:            80,
			Shards:              shards,
			CompletedFlowWindow: window,
			Seed:                1,
		}
	}
	base, err := mk(1, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	clearSyncFields(base)
	want, _ := json.Marshal(base)
	got4, err := mk(4, 8).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got4.ShardsUsed != 4 {
		t.Fatalf("ShardsUsed = %d, want 4", got4.ShardsUsed)
	}
	clearSyncFields(got4)
	got, _ := json.Marshal(got4)
	if string(got) != string(want) {
		t.Fatalf("sharded+windowed FatTree diverged:\n got %s\nwant %s", got, want)
	}
}
