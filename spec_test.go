package hpcc_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// HPCC's first window is B·T, so a lone flow on an idle fabric runs
// near line rate only if T covers the RTT of the path it takes. T must
// follow the fabric: Pod and FatTree with 5 µs links, and a Custom
// graph whose fewest-hop route (one 10 µs link) is slower than its
// 3-switch detour.
func TestLoneFlowNearLineRate(t *testing.T) {
	const size = 10_000_000
	var detour hpcc.Custom
	h0, h1 := detour.AddHost(), detour.AddHost()
	s0, s1, s2, s3 := detour.AddSwitch(), detour.AddSwitch(), detour.AddSwitch(), detour.AddSwitch()
	detour.Link(h0, s0, 100, time.Microsecond)
	detour.Link(s0, s1, 100, 10*time.Microsecond)
	detour.Link(s0, s2, 100, time.Microsecond)
	detour.Link(s2, s3, 100, time.Microsecond)
	detour.Link(s3, s1, 100, time.Microsecond)
	detour.Link(s1, h1, 100, time.Microsecond)
	for _, tc := range []struct {
		name     string
		topo     hpcc.Topology
		src, dst int
		gbps     float64
	}{
		{"pod-5us", hpcc.Pod{LinkDelay: 5 * time.Microsecond}, 0, 31, 25},
		{"fattree-5us", hpcc.FatTree{LinkDelay: 5 * time.Microsecond}, 0, 31, 100},
		{"custom-detour", &detour, 0, 1, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := hpcc.Experiment{Scheme: "hpcc", Topology: tc.topo}.Start()
			if err != nil {
				t.Fatal(err)
			}
			f := net.StartFlow(tc.src, tc.dst, size)
			net.RunUntilIdle()
			if !f.Done() {
				t.Fatal("flow did not complete")
			}
			if gbps := 8 * size / f.FCT().Seconds() / 1e9; gbps < 0.8*tc.gbps {
				t.Errorf("goodput %.1f Gbps (T = %v), want ≥ 80%% of %.0f Gbps", gbps, net.BaseRTT(), tc.gbps)
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
// overwhelms a link in lossless mode. The dumbbell's 400 Gbps core
// carries the incast into the receivers' switch, so one ingress port
// holds the whole backlog and crosses the pause threshold.
func TestPFCObserverStreams(t *testing.T) {
	var events []hpcc.PFCEvent
	_, err := hpcc.Experiment{
		Scheme:   "dcqcn",
		Topology: hpcc.Dumbbell{Pairs: 16, CoreRateGbps: 400},
		Traffic:  []hpcc.Traffic{hpcc.Incast{FanIn: 16, FlowSizeBytes: 500_000, LoadFraction: 0.5}},
		Horizon:  200 * time.Microsecond,
		Drain:    5 * time.Millisecond,
		Observers: []hpcc.Observer{
			hpcc.PFCObserver{OnEvent: func(e hpcc.PFCEvent) { events = append(events, e) }},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
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

// A hostile topology spec, Schedule endpoint or per-source cap is an
// error from Run and Start, never a panic, a run that starts no flows,
// one that drops packets on missing routes or an uncapped run.
func TestHostileInputsRejected(t *testing.T) {
	poisson := []hpcc.Traffic{hpcc.Poisson{Load: 0.3, MaxFlows: 20}}
	schedule := func(src, dst int) []hpcc.Traffic {
		return []hpcc.Traffic{hpcc.Schedule{{Src: src, Dst: dst, SizeBytes: 1000}}}
	}
	// Custom graphs whose hosts are not all joined through switches:
	// hosts do not forward, so no route may pass through one.
	var unlinked, islands, bridged hpcc.Custom
	sw := unlinked.AddSwitch()
	unlinked.Link(unlinked.AddHost(), sw, 100, time.Microsecond)
	unlinked.Link(unlinked.AddHost(), sw, 100, time.Microsecond)
	unlinked.AddHost()
	for i := 0; i < 2; i++ {
		sw := islands.AddSwitch()
		islands.Link(islands.AddHost(), sw, 100, time.Microsecond)
		islands.Link(islands.AddHost(), sw, 100, time.Microsecond)
	}
	swA, swB := bridged.AddSwitch(), bridged.AddSwitch()
	bridged.Link(bridged.AddHost(), swA, 100, time.Microsecond)
	middle := bridged.AddHost()
	bridged.Link(middle, swA, 100, time.Microsecond)
	bridged.Link(middle, swB, 100, time.Microsecond)
	bridged.Link(bridged.AddHost(), swB, 100, time.Microsecond)
	var looped hpcc.Custom
	sw = looped.AddSwitch()
	looped.Link(looped.AddHost(), sw, 100, time.Microsecond)
	looped.Link(looped.AddHost(), sw, 100, time.Microsecond)
	looped.Link(sw, sw, 100, time.Microsecond)
	for name, e := range map[string]hpcc.Experiment{
		"FatTree negative Aggs":    {Topology: hpcc.FatTree{Cores: 2, Aggs: -1, ToRs: 2, HostsPerToR: 2}, Traffic: poisson},
		"FatTree only Cores":       {Topology: hpcc.FatTree{Cores: 2}, Traffic: poisson},
		"FatTree no Aggs":          {Topology: hpcc.FatTree{Cores: 2, ToRs: 2, HostsPerToR: 2}, Traffic: poisson},
		"FatTree only Aggs":        {Topology: hpcc.FatTree{Aggs: 5}, Traffic: poisson},
		"FatTree negative rate":    {Topology: hpcc.FatTree{FabricRateGbps: -400}, Traffic: poisson},
		"Star negative delay":      {Topology: hpcc.Star{LinkDelay: -time.Microsecond}, Traffic: poisson},
		"Star negative rate":       {Topology: hpcc.Star{LinkRateGbps: -5}, Traffic: poisson},
		"Dumbbell negative rate":   {Topology: hpcc.Dumbbell{Pairs: 2, CoreRateGbps: -1}, Traffic: poisson},
		"ParkingLot negative rate": {Topology: hpcc.ParkingLot{LinkRateGbps: -1}, Traffic: poisson},
		"Pod negative delay":       {Topology: hpcc.Pod{LinkDelay: -time.Microsecond}, Traffic: poisson},
		"Schedule Dst past hosts":  {Topology: hpcc.Star{Hosts: 4}, Traffic: schedule(0, 9)},
		"Schedule negative Src":    {Topology: hpcc.Star{Hosts: 4}, Traffic: schedule(-1, 1)},
		// RoCE NICs do not hairpin: a flow to its own source is no flow.
		"Schedule Src == Dst": {Topology: hpcc.Star{Hosts: 4}, Traffic: schedule(2, 2)},
		// A negative retention window is not "unbounded".
		"negative CompletedFlowWindow": {Topology: hpcc.Star{Hosts: 4}, Traffic: poisson, CompletedFlowWindow: -3},
		// A negative per-source cap is not "unlimited".
		"Poisson negative MaxFlows": {Topology: hpcc.Star{Hosts: 4}, Traffic: []hpcc.Traffic{hpcc.Poisson{Load: 0.3, MaxFlows: -1}}},
		"RPC negative MaxRequests":  {Topology: hpcc.Star{Hosts: 4}, Traffic: []hpcc.Traffic{hpcc.RPC{ResponseBytes: 1000, Load: 0.1, MaxRequests: -1}}},
		"Custom host never linked":  {Topology: &unlinked, Traffic: schedule(2, 0)},
		"Custom two islands":        {Topology: &islands, Traffic: schedule(0, 3)},
		// The middle host would consume frames for host 2 and ACK them.
		"Custom switches joined by a host": {Topology: &bridged, Traffic: schedule(0, 2)},
		"Custom switch linked to itself":   {Topology: &looped, Traffic: schedule(0, 1)},
	} {
		if _, err := e.Start(); err == nil {
			t.Errorf("%s: Start accepted it", name)
			continue // running it would panic or return nonsense
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
		// plus drain before the horizon, a flow cap below zero.
		{Horizon: -time.Millisecond},
		{Drain: -5 * time.Millisecond},
		{MaxFlows: -5},
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

// A lossless fabric whose switch buffer (32 MB) is below its PFC
// headroom sum is refused by Run and Start alike: two 100 Gbps links of
// 1 ms need 2 × (2 × 12.5 MB + 2 frames) ≈ 50 MB. The same fabric runs
// lossy, and with 100 µs links (≈ 5 MB) lossless too.
func TestLosslessNeedsHeadroom(t *testing.T) {
	star := func(delay time.Duration) *hpcc.Custom {
		var c hpcc.Custom
		a, b, sw := c.AddHost(), c.AddHost(), c.AddSwitch()
		c.Link(a, sw, 100, delay)
		c.Link(b, sw, 100, delay)
		return &c
	}
	lossy := false
	tiny := []hpcc.Traffic{hpcc.Schedule{{Src: 0, Dst: 1, SizeBytes: 1000}}}
	long := hpcc.Experiment{Topology: star(time.Millisecond), Traffic: tiny}
	if _, err := long.Run(); err == nil || !strings.Contains(err.Error(), "headroom sum of 50004424 B") {
		t.Errorf("Run: %v, want the headroom error", err)
	}
	if _, err := long.Start(); err == nil || !strings.Contains(err.Error(), "headroom sum of 50004424 B") {
		t.Errorf("Start: %v, want the headroom error", err)
	}
	for _, e := range []hpcc.Experiment{
		{Topology: star(time.Millisecond), Traffic: tiny, Lossless: &lossy},
		{Topology: star(100 * time.Microsecond), Traffic: tiny},
	} {
		if _, err := e.Run(); err != nil {
			t.Errorf("%+v: %v", e, err)
		}
	}
}

// A StatsObserver only reads the run: for exact and sketch statistics,
// with the horizon on a flush boundary (4 ms) and halfway through a
// window (4.5 ms), the result is the same with and without one.
func TestStatsObserverLeavesResult(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		for _, horizon := range []time.Duration{4 * time.Millisecond, 4500 * time.Microsecond} {
			t.Run(fmt.Sprintf("sketch=%v/horizon=%v", sketch, horizon), func(t *testing.T) {
				t.Parallel()
				e := hpcc.Experiment{
					Topology:    hpcc.Pod{},
					Traffic:     []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.5}},
					MaxFlows:    100,
					Horizon:     horizon,
					Drain:       10 * time.Millisecond,
					SketchStats: sketch,
				}
				bare, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				flushes := 0
				e.Observers = []hpcc.Observer{hpcc.StatsObserver{OnFlush: func(hpcc.StatsFlush) { flushes++ }}}
				watched, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if flushes == 0 {
					t.Fatal("no flush")
				}
				if !reflect.DeepEqual(bare, watched) {
					t.Errorf("a StatsObserver changed the result\nwithout: %+v\nwith:    %+v", *bare, *watched)
				}
			})
		}
	}
}
