package hpcc_test

import (
	"reflect"
	"testing"
	"time"

	"hpcc"
	"hpcc/internal/sim"
)

// A scheduled flow must cost zero simulation events until it starts —
// the old implementation re-armed a 1 µs poll timer to attach the
// OnProgress callback, burning ~10⁶ events per simulated second of lead
// time.
func TestScheduledFlowCostsNothingUntilStart(t *testing.T) {
	meter := sim.AttachMeter()
	defer meter.Detach()
	net, err := hpcc.Experiment{Topology: hpcc.Star{Hosts: 3, LinkRateGbps: 25}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	var progressed int64
	f := net.StartFlowAt(50*time.Millisecond, 0, 2, 100_000)
	f.OnProgress(func(n int64) { progressed += n })

	// Run right up to the start time: the network is empty, so the only
	// admissible work is bookkeeping — far fewer events than the ~50k a
	// µs-resolution poll would burn.
	net.Run(49 * time.Millisecond)
	if progressed != 0 {
		t.Fatal("flow progressed before its start time")
	}
	if ev := meter.Events(); ev > 100 {
		t.Fatalf("idle wait burned %d events, want ~0 (busy-poll regression)", ev)
	}

	// After the start time the callback (registered pre-start) must see
	// every acknowledged byte.
	net.Run(10 * time.Millisecond)
	if !f.Done() {
		t.Fatal("scheduled flow did not complete")
	}
	if progressed != 100_000 {
		t.Fatalf("OnProgress saw %d bytes, want 100000", progressed)
	}
	if s := f.Slowdown(); s < 1 || s > 5 {
		t.Fatalf("slowdown = %v", s)
	}
}

// OnProgress registered after a flow already materialized still
// attaches directly.
func TestOnProgressAfterStart(t *testing.T) {
	net, err := hpcc.Experiment{Topology: hpcc.Star{Hosts: 3, LinkRateGbps: 25}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	f := net.StartFlow(0, 2, 50_000)
	var progressed int64
	f.OnProgress(func(n int64) { progressed += n })
	net.RunUntilIdle()
	if progressed != 50_000 {
		t.Fatalf("OnProgress saw %d bytes, want 50000", progressed)
	}
}

// Slowdown is 0 while in flight and ≥ 1 once done, for scheduled flows
// too.
func TestSlowdownLifecycle(t *testing.T) {
	net, err := hpcc.Experiment{Topology: hpcc.Star{Hosts: 3}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	f := net.StartFlowAt(100*time.Microsecond, 0, 1, 1<<20)
	if f.Slowdown() != 0 {
		t.Fatal("slowdown nonzero before start")
	}
	net.Run(50 * time.Microsecond)
	if f.Slowdown() != 0 || f.Done() {
		t.Fatal("flow ran early")
	}
	net.RunUntilIdle()
	if s := f.Slowdown(); s < 1 {
		t.Fatalf("slowdown = %v, want >= 1", s)
	}
}

// Manual flows and READs stream the same completion records as
// generated traffic: one record per transfer, measured like the handle.
func TestManualCompletionsStream(t *testing.T) {
	var recs []hpcc.FlowRecord
	obs := hpcc.FlowObserver{OnComplete: func(r hpcc.FlowRecord) { recs = append(recs, r) }}
	net, err := hpcc.Experiment{Topology: hpcc.Star{Hosts: 3}, Observers: []hpcc.Observer{obs}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	f := net.StartFlow(0, 2, 200_000)
	net.RunUntilIdle()
	if len(recs) != 1 {
		t.Fatalf("StartFlow streamed %d records, want 1", len(recs))
	}
	if r := recs[0]; r.Read || r.Src != 0 || r.Dst != 2 || r.SizeBytes != 200_000 || r.FCT != f.FCT() || r.Slowdown != f.Slowdown() {
		t.Fatalf("flow record %+v, want 0→2, 200000 B, FCT %v, slowdown %v", r, f.FCT(), f.Slowdown())
	}

	recs = nil
	done := false
	issued := net.Now()
	net.Read(1, 2, 100_000, func() { done = true })
	net.RunUntilIdle()
	if !done || len(recs) != 1 {
		t.Fatalf("Read: done %v, %d records, want done and 1", done, len(recs))
	}
	if r := recs[0]; !r.Read || r.Src != 2 || r.Dst != 1 || r.SizeBytes != 100_000 || r.Start != issued || r.Slowdown < 1 {
		t.Fatalf("read record %+v, want a READ 2→1 of 100000 B issued at %v with slowdown >= 1", r, issued)
	}
}

// A Pod run with the FB_Hadoop workload exercises the second public
// CDF end to end (bucket edges differ from WebSearch).
func TestRunFBHadoop(t *testing.T) {
	res, err := hpcc.Experiment{
		Scheme:   "hpcc",
		Topology: hpcc.Pod{},
		Traffic:  []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.FBHadoopCDF(), Load: 0.3}},
		Horizon:  4 * time.Millisecond,
		Drain:    12 * time.Millisecond,
		MaxFlows: 150,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows == 0 {
		t.Fatal("no flows completed")
	}
	if res.SlowdownP50 < 1 {
		t.Fatalf("p50 slowdown = %v", res.SlowdownP50)
	}
	// FB_Hadoop's smallest bucket tops out at 324 B.
	if len(res.BucketP95) != 10 || res.BucketP95[0].SizeHi != 324 {
		t.Fatalf("buckets = %+v", res.BucketP95)
	}
}

// A handle returned by StartFlow keeps reading its own transfer however
// many flows complete after it: CompletedFlowWindow evicts the flow from
// the host's map, but a flow whose handle left the simulator is never
// recycled into a later one.
func TestFlowHandleOutlivesCompletedWindow(t *testing.T) {
	net, err := hpcc.Experiment{Scheme: "hpcc", Topology: hpcc.Star{Hosts: 3}, CompletedFlowWindow: 2}.Start()
	if err != nil {
		t.Fatal(err)
	}
	first := net.StartFlow(0, 2, 5000)
	late := net.StartFlowAt(time.Microsecond, 0, 2, 7000)
	net.RunUntilIdle()
	fct, lateFCT := first.FCT(), late.FCT()
	if !first.Done() || !late.Done() || fct <= 0 || lateFCT <= 0 {
		t.Fatalf("flows did not complete: done %v/%v, FCT %v/%v", first.Done(), late.Done(), fct, lateFCT)
	}
	for i := 0; i < 10; i++ {
		net.StartFlow(0, 2, 100_000)
		net.RunUntilIdle()
	}
	if !first.Done() || first.Acked() != 5000 || first.FCT() != fct {
		t.Fatalf("StartFlow handle changed after 10 later completions: done %v, acked %d (want 5000), FCT %v (want %v)",
			first.Done(), first.Acked(), first.FCT(), fct)
	}
	if !late.Done() || late.Acked() != 7000 || late.FCT() != lateFCT {
		t.Fatalf("StartFlowAt handle changed after 10 later completions: done %v, acked %d (want 7000), FCT %v (want %v)",
			late.Done(), late.Acked(), late.FCT(), lateFCT)
	}
}

// A FatTree run with a bounded completed-flow window matches the
// unbounded run field for field, the engine's own counters included.
func TestExperimentCompletedWindowFatTree(t *testing.T) {
	run := func(window int) *hpcc.SimResult {
		res, err := hpcc.Experiment{
			Topology:            hpcc.FatTree{},
			Traffic:             []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.5}},
			Horizon:             time.Millisecond,
			Drain:               8 * time.Millisecond,
			MaxFlows:            80,
			CompletedFlowWindow: window,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(0), run(8)
	if want.Flows == 0 {
		t.Fatal("no flows completed — test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window 8 diverged from unbounded retention:\n got %+v\nwant %+v", got, want)
	}
}
