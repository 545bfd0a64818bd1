package hpcc_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hpcc"
)

// Every preset Topology spec must round-trip: compose into an
// Experiment, build, carry one flow end to end.
func TestTopologySpecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		topo hpcc.Topology
		// src/dst pick hosts that exist in the built fabric.
		src, dst int
	}{
		{"star", hpcc.Star{Hosts: 4}, 0, 3},
		{"star-default", hpcc.Star{}, 0, 16},
		{"dumbbell", hpcc.Dumbbell{Pairs: 2, HostRateGbps: 25}, 0, 2},
		{"parkinglot", hpcc.ParkingLot{Segments: 3}, 0, 1},
		{"pod", hpcc.Pod{}, 0, 31},
		{"fattree", hpcc.FatTree{}, 0, 31},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, err := hpcc.Experiment{Topology: tc.topo}.Start()
			if err != nil {
				t.Fatal(err)
			}
			f := net.StartFlow(tc.src, tc.dst, 200_000)
			net.RunUntilIdle()
			if !f.Done() {
				t.Fatal("flow did not complete")
			}
			if s := f.Slowdown(); s < 1 {
				t.Fatalf("slowdown = %v, want >= 1", s)
			}
		})
	}
}

// A Custom topology must build with user-chosen host indices, route
// across its switches, and derive a sane base RTT.
func TestCustomTopologyRoundTrip(t *testing.T) {
	// Two racks of two hosts under one spine.
	var c hpcc.Custom
	spine := c.AddSwitch()
	for r := 0; r < 2; r++ {
		tor := c.AddSwitch()
		c.Link(tor, spine, 400, time.Microsecond)
		for i := 0; i < 2; i++ {
			c.Link(c.AddHost(), tor, 100, time.Microsecond)
		}
	}
	if c.NumHosts() != 4 {
		t.Fatalf("NumHosts = %d, want 4", c.NumHosts())
	}
	net, err := hpcc.Experiment{Topology: &c}.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Cross-rack RTT: 3 hops each way at 1 µs ⇒ base RTT > 6 µs.
	if rtt := net.BaseRTT(); rtt < 6*time.Microsecond || rtt > 20*time.Microsecond {
		t.Fatalf("derived base RTT = %v", rtt)
	}
	f := net.StartFlow(0, 3, 500_000) // crosses the spine
	net.RunUntilIdle()
	if !f.Done() {
		t.Fatal("cross-rack flow did not complete")
	}
}

// Custom topologies reject degenerate graphs.
func TestCustomTopologyValidation(t *testing.T) {
	var empty hpcc.Custom
	if _, err := (hpcc.Experiment{Topology: &empty}).Start(); err == nil {
		t.Fatal("accepted an empty custom topology")
	}
	var unlinked hpcc.Custom
	unlinked.AddHost()
	unlinked.AddHost()
	if _, err := (hpcc.Experiment{Topology: &unlinked}).Start(); err == nil {
		t.Fatal("accepted a custom topology with no links")
	}
	var dangling hpcc.Custom
	h := dangling.AddHost()
	dangling.AddHost()
	dangling.Link(h, hpcc.Node{}, 100, time.Microsecond) // zero Node = host 0, fine
	var other hpcc.Custom
	sw := other.AddSwitch()
	dangling.Link(h, sw, 100, time.Microsecond) // switch from another Custom
	if _, err := (hpcc.Experiment{Topology: &dangling}).Start(); err == nil {
		t.Fatal("accepted a link to a node this Custom never added")
	}
	var badRate hpcc.Custom
	a, b := badRate.AddHost(), badRate.AddHost()
	badRate.Link(a, b, -25, time.Microsecond)
	if _, err := (hpcc.Experiment{Topology: &badRate}).Start(); err == nil {
		t.Fatal("accepted a negative link rate")
	}
}

// Each switch on a path pushes one INT record and a packet holds
// packet.MaxHops (5) of them, so a Custom graph whose hosts are more
// switches apart than that is an error, not a run on a truncated INT
// stack.
func TestCustomPathFitsINTStack(t *testing.T) {
	chain := func(switches int) hpcc.Topology {
		var c hpcc.Custom
		prev := c.AddHost()
		for i := 0; i < switches; i++ {
			sw := c.AddSwitch()
			c.Link(prev, sw, 100, time.Microsecond)
			prev = sw
		}
		c.Link(prev, c.AddHost(), 100, time.Microsecond)
		return &c
	}
	for _, tc := range []struct {
		name string
		topo hpcc.Topology
		ok   bool
	}{
		{"chain-5", chain(5), true},
		{"chain-6", chain(6), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := hpcc.Experiment{
				Topology: tc.topo,
				Traffic:  []hpcc.Traffic{hpcc.Schedule{{Src: 0, Dst: 1, SizeBytes: 50_000}}},
				Horizon:  time.Millisecond,
			}
			res, err := e.Run()
			if tc.ok && (err != nil || res.Flows != 1) {
				t.Fatalf("Run = %+v, %v; want the one flow completed", res, err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Run accepted a path longer than the INT stack")
			}
			if _, err := e.Start(); (err == nil) != tc.ok {
				t.Fatalf("Start error = %v, want error %v", err, !tc.ok)
			}
		})
	}
}

// Every Traffic spec must round-trip through Experiment.Run and
// produce completed-flow statistics.
func TestTrafficSpecRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		traffic hpcc.Traffic
	}{
		{"poisson", hpcc.Poisson{CDF: hpcc.FBHadoopCDF(), Load: 0.3, MaxFlows: 60}},
		{"incast", hpcc.Incast{FanIn: 4, FlowSizeBytes: 100_000, LoadFraction: 0.05}},
		{"alltoall", hpcc.AllToAll{FlowSizeBytes: 50_000}},
		{"rpc", hpcc.RPC{ResponseBytes: 40_000, Load: 0.2, MaxRequests: 40}},
		{"schedule", hpcc.Schedule{
			{At: 0, Src: 0, Dst: 5, SizeBytes: 100_000},
			{At: 100 * time.Microsecond, Src: 1, Dst: 5, SizeBytes: 100_000},
		}},
		{"arrivalfunc", hpcc.ArrivalFunc(func(i int) (hpcc.FlowSpec, bool) {
			if i >= 10 {
				return hpcc.FlowSpec{}, false
			}
			return hpcc.FlowSpec{
				At:  time.Duration(i) * 50 * time.Microsecond,
				Src: i % 5, Dst: 5, SizeBytes: 20_000,
			}, true
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := hpcc.Experiment{
				Topology: hpcc.Star{Hosts: 6},
				Traffic:  []hpcc.Traffic{tc.traffic},
				Horizon:  2 * time.Millisecond,
				Drain:    10 * time.Millisecond,
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
		})
	}
}

// The RPC generator drives the READ path: every response must be
// pulled through an actual RDMA READ and measured at the requester.
func TestRPCTrafficDrivesReads(t *testing.T) {
	var reads int
	res, err := hpcc.Experiment{
		Topology: hpcc.Star{Hosts: 6},
		Traffic:  []hpcc.Traffic{hpcc.RPC{ResponseBytes: 30_000, Load: 0.2, MaxRequests: 25}},
		Horizon:  2 * time.Millisecond,
		Drain:    10 * time.Millisecond,
		Observers: []hpcc.Observer{hpcc.FlowObserver{OnComplete: func(r hpcc.FlowRecord) {
			reads++
			if r.FCT <= 0 || r.SizeBytes != 30_000 {
				t.Errorf("bad read record %+v", r)
			}
		}}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reads == 0 || res.Flows != reads {
		t.Fatalf("reads = %d, result flows = %d", reads, res.Flows)
	}
}

// RPC on the dual-homed Pod exercises READ responses departing over
// either uplink (regression: negative READ flow IDs used to produce a
// negative port index and panic).
func TestRPCOnDualHomedPod(t *testing.T) {
	res, err := hpcc.Experiment{
		Topology: hpcc.Pod{},
		Traffic:  []hpcc.Traffic{hpcc.RPC{ResponseBytes: 20_000, Load: 0.1, MaxRequests: 30}},
		Horizon:  2 * time.Millisecond,
		Drain:    10 * time.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows == 0 {
		t.Fatal("no READs completed on the pod")
	}
}

// AllToAll rounds run closed-loop: N·(N−1) flows per round, all
// completing.
func TestAllToAllRounds(t *testing.T) {
	var flows int
	_, err := hpcc.Experiment{
		Topology: hpcc.Star{Hosts: 4},
		Traffic:  []hpcc.Traffic{hpcc.AllToAll{FlowSizeBytes: 20_000, Rounds: 2}},
		Horizon:  5 * time.Millisecond,
		Drain:    10 * time.Millisecond,
		Observers: []hpcc.Observer{hpcc.FlowObserver{OnComplete: func(hpcc.FlowRecord) {
			flows++
		}}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 4 * 3; flows != want {
		t.Fatalf("all-to-all completions = %d, want %d", flows, want)
	}
}

// Observers stream queue samples and flow records in virtual-time
// order while the simulation runs.
func TestObserversStream(t *testing.T) {
	var samples []hpcc.QueueSample
	var records []hpcc.FlowRecord
	_, err := hpcc.Experiment{
		Topology: hpcc.Star{Hosts: 5},
		Traffic:  []hpcc.Traffic{hpcc.Incast{FanIn: 4, FlowSizeBytes: 200_000, LoadFraction: 0.1}},
		Horizon:  time.Millisecond,
		Drain:    5 * time.Millisecond,
		Observers: []hpcc.Observer{
			hpcc.QueueObserver{OnSample: func(s hpcc.QueueSample) { samples = append(samples, s) }},
			hpcc.FlowObserver{OnComplete: func(r hpcc.FlowRecord) { records = append(records, r) }},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no queue samples streamed")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At <= samples[i-1].At {
			t.Fatal("queue samples out of order")
		}
	}
	if len(records) == 0 {
		t.Fatal("no flow records streamed")
	}
	for _, r := range records {
		if r.Slowdown < 1 || r.FCT <= 0 {
			t.Fatalf("bad record %+v", r)
		}
	}
}

// The PFC observer sees pause/resume transitions when a deep incast
// overwhelms a slow link in lossless mode.
func TestPFCObserverStreams(t *testing.T) {
	var events []hpcc.PFCEvent
	_, err := hpcc.Experiment{
		Scheme:   "dcqcn",
		Topology: hpcc.Star{Hosts: 17, LinkRateGbps: 25},
		Traffic:  []hpcc.Traffic{hpcc.Incast{FanIn: 16, FlowSizeBytes: 500_000, LoadFraction: 0.5}},
		Horizon:  2 * time.Millisecond,
		Drain:    20 * time.Millisecond,
		Observers: []hpcc.Observer{
			hpcc.PFCObserver{OnEvent: func(e hpcc.PFCEvent) { events = append(events, e) }},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Skip("no PFC events at this scale (pause threshold not reached)")
	}
	pauses, resumes := 0, 0
	for _, e := range events {
		if e.Paused {
			pauses++
		} else {
			resumes++
		}
	}
	if pauses == 0 || resumes == 0 {
		t.Fatalf("pauses = %d, resumes = %d, want both", pauses, resumes)
	}
}

// The parking-lot sentinel bug: an explicit segment count must be
// honored, not silently remapped to 2. The deepest lot whose long flow
// fits the INT stack has 4 segments (5 switches); one more is an error
// from Run and Start alike, not a run on a truncated stack.
func TestParkingLotHonorsExplicitSegments(t *testing.T) {
	net, err := hpcc.Experiment{Topology: hpcc.ParkingLot{Segments: 4}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := net.NumHosts(), 2+2*4; got != want {
		t.Fatalf("4-segment parking lot has %d hosts, want %d", got, want)
	}
	deep := hpcc.Experiment{Topology: hpcc.ParkingLot{Segments: 5}, Horizon: time.Millisecond}
	if _, err := deep.Run(); err == nil {
		t.Fatal("Run accepted a 5-segment parking lot")
	}
	if _, err := deep.Start(); err == nil {
		t.Fatal("Start accepted a 5-segment parking lot")
	}
	// The default is still 2 segments.
	def, err := hpcc.Experiment{Topology: hpcc.ParkingLot{}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if got := def.NumHosts(); got != 6 {
		t.Fatalf("default parking lot has %d hosts, want 6", got)
	}
}

// A run where no flow completes must report zeros (never NaN) and
// survive encoding/json, with the explicit counts saying why.
func TestNaNGuardsEmptyResult(t *testing.T) {
	res, err := hpcc.Experiment{
		Topology: hpcc.Star{Hosts: 4},
		Traffic:  []hpcc.Traffic{hpcc.Schedule{}}, // no arrivals at all
		Horizon:  100 * time.Microsecond,
		Drain:    100 * time.Microsecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows != 0 || res.ShortFlows != 0 {
		t.Fatalf("expected an empty run, got %d flows", res.Flows)
	}
	for name, v := range map[string]float64{
		"SlowdownP50":          res.SlowdownP50,
		"SlowdownP95":          res.SlowdownP95,
		"SlowdownP99":          res.SlowdownP99,
		"ShortFlowP99Slowdown": res.ShortFlowP99Slowdown,
	} {
		if math.IsNaN(v) || v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	for _, b := range res.BucketP95 {
		if math.IsNaN(b.P95) {
			t.Errorf("bucket %d has NaN P95", b.SizeHi)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("empty result does not survive JSON: %v", err)
	}
}

// A run with flows but none short must still guard the short-flow
// percentile.
func TestNaNGuardShortFlows(t *testing.T) {
	res, err := hpcc.Experiment{
		Topology: hpcc.Star{Hosts: 3},
		// One 1 MB flow: completes, but nothing ≤ 7 KB.
		Traffic: []hpcc.Traffic{hpcc.Schedule{{Src: 0, Dst: 2, SizeBytes: 1 << 20}}},
		Horizon: time.Millisecond,
		Drain:   10 * time.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows != 1 || res.ShortFlows != 0 {
		t.Fatalf("flows = %d, short = %d", res.Flows, res.ShortFlows)
	}
	if math.IsNaN(res.ShortFlowP99Slowdown) || res.ShortFlowP99Slowdown != 0 {
		t.Fatalf("ShortFlowP99Slowdown = %v, want 0", res.ShortFlowP99Slowdown)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result does not survive JSON: %v", err)
	}
}

// CDFFromFile loads ns-3-style distribution files, on both probability
// scales.
func TestCDFFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "custom.cdf")
	content := "# test distribution\n1000 0\n10000 50\n100000 100\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cdf, err := hpcc.CDFFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Name() != "custom" {
		t.Fatalf("name = %q", cdf.Name())
	}
	res, err := hpcc.Experiment{
		Topology: hpcc.Star{Hosts: 5},
		Traffic:  []hpcc.Traffic{hpcc.Poisson{CDF: cdf, Load: 0.3, MaxFlows: 40}},
		Horizon:  2 * time.Millisecond,
		Drain:    10 * time.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows == 0 {
		t.Fatal("no flows from the custom CDF")
	}
	// Bucket edges derive from the custom CDF's knots.
	if len(res.BucketP95) != 3 || res.BucketP95[2].SizeHi != 100000 {
		t.Fatalf("buckets = %+v", res.BucketP95)
	}
	if _, err := hpcc.CDFFromFile(filepath.Join(dir, "missing.cdf")); err == nil {
		t.Fatal("accepted a missing file")
	}
}

// A NaN knot or a negative size is an error from every CDF
// constructor, never a run that panics or starts no flows.
func TestCDFRejectsOutOfRangePoints(t *testing.T) {
	for name, pts := range map[string][]hpcc.CDFPoint{
		"NaN interior": {{0, 0}, {1000, math.NaN()}, {2000, 1}},
		"negative":     {{-5000, 0}, {-10, 1}},
	} {
		if _, err := hpcc.NewCDF("bad", pts); err == nil {
			t.Errorf("NewCDF %s: accepted %v", name, pts)
		}
	}
	dir := t.TempDir()
	for name, content := range map[string]string{
		"nan.cdf":      "0 0\n1000 NaN\n2000 1\n",
		"negative.cdf": "-5000 0\n-10 1\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := hpcc.CDFFromFile(path); err == nil {
			t.Errorf("CDFFromFile accepted %s", name)
		}
	}
}

// A traffic rate that is NaN or infinite is an error from Run and
// Start, never a past-scheduled event, an endless burst at t = 0 or a
// run whose every arrival lands at once.
func TestTrafficRejectsNonFiniteRates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, tr := range map[string]hpcc.Traffic{
		"Poisson NaN":  hpcc.Poisson{Load: nan},
		"Poisson +Inf": hpcc.Poisson{Load: inf},
		"RPC NaN":      hpcc.RPC{ResponseBytes: 1000, Load: nan},
		"RPC +Inf":     hpcc.RPC{ResponseBytes: 1000, Load: inf},
		"Incast NaN":   hpcc.Incast{FanIn: 2, FlowSizeBytes: 1000, LoadFraction: nan},
		"Incast +Inf":  hpcc.Incast{FanIn: 2, FlowSizeBytes: 1000, LoadFraction: inf},
	} {
		e := hpcc.Experiment{Topology: hpcc.Star{Hosts: 4}, Traffic: []hpcc.Traffic{tr}}
		if _, err := e.Start(); err == nil {
			t.Errorf("%s: Start accepted it", name)
			continue // running it would panic or never end
		}
		if _, err := e.Run(); err == nil {
			t.Errorf("%s: Run accepted it", name)
		}
	}
}

// Experiment validation surfaces bad specs as errors, not panics.
func TestExperimentValidation(t *testing.T) {
	bad := []hpcc.Experiment{
		{Scheme: "nope"},
		{Topology: hpcc.Star{Hosts: 1}},
		{Topology: hpcc.Pod{Servers: 3}},
		{Traffic: []hpcc.Traffic{hpcc.Poisson{Load: -0.5}}},
		{Traffic: []hpcc.Traffic{hpcc.Incast{FanIn: 1, FlowSizeBytes: 1, LoadFraction: 0.1}}},
		{Traffic: []hpcc.Traffic{hpcc.RPC{}}},
		{Traffic: []hpcc.Traffic{nil}},
		// Degenerate run parameters: nothing to simulate, a horizon
		// plus drain before the horizon, a flow cap below zero, a sketch
		// whose bucket ratio is not finite and positive.
		{Horizon: -time.Millisecond},
		{Drain: -5 * time.Millisecond},
		{MaxFlows: -5},
		{SketchStats: true, StatsAccuracy: 2},
		{SketchStats: true, StatsAccuracy: math.NaN()},
	}
	for i, e := range bad {
		if _, err := e.Run(); err == nil {
			t.Errorf("case %d: Run accepted invalid experiment", i)
		}
		if _, err := e.Start(); err == nil {
			t.Errorf("case %d: Start accepted invalid experiment", i)
		}
	}
}
