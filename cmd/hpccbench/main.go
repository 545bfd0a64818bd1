// Command hpccbench is the repo's perf-baseline harness: it runs a
// fixed set of simulation scenarios (FatTree WebSearch at 50% load, a
// 16:1 incast, and a parking-lot chain), and reports how fast the
// simulator itself runs — events/sec, simulated packets/sec, and heap
// allocations per packet. Its JSON output is the recorded perf
// trajectory (BENCH_PR2.json, BENCH_PR4.json and successors); CI runs
// `-quick` as a smoke test and uploads the artifact.
//
// -paper adds the full 320-host paper-scale fabric (the ROADMAP
// wall-clock target).
//
// Usage:
//
//	hpccbench [-quick] [-paper] [-label name] [-out bench.json]
//	          [-baseline old.json] [-perfbaseline old.json]
//	          [-cpuprofile f] [-memprofile f] [-mutexprofile f]
//
// With -baseline, the run fails (exit 1) if any scenario's
// allocs/packet regresses materially against the same-named scenario
// in the baseline file — the CI guard for the zero-allocation hot
// path. -perfbaseline adds the throughput gate: packets/s may not
// collapse and the deterministic events/port-packet ratio may not
// grow (see gatePerf). Wall-clock numbers are machine-sensitive;
// allocs/packet and events/port-packet are deterministic and
// machine-independent. The -cpuprofile/-memprofile/-mutexprofile
// flags (internal/prof) capture pprof profiles of the scenario runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hpcc/internal/experiment"
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/prof"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// ScenarioResult is one scenario's measurement.
type ScenarioResult struct {
	Name        string  `json:"name"`
	WallMS      float64 `json:"wall_ms"`
	SimulatedMS float64 `json:"simulated_ms"`
	// PacketsPerSec (simulated data packets retired per wall second) is
	// the headline throughput metric: unlike events/s it is not deflated
	// when the scheduler learns to do the same work in fewer events —
	// the lazy-port change cut the event count per packet by ~35%, which
	// made events/s look flat while the simulator got nearly 2× faster.
	DataPackets   uint64  `json:"data_packets"`
	PortPackets   uint64  `json:"port_packets"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	Events        uint64  `json:"events"`
	EventsPerSec  float64 `json:"events_per_sec"`
	// EventsPerPortPacket is the scheduling-efficiency ratio: engine
	// events fired per port-level frame serialized. Deterministic (no
	// wall clock in it), so it gates tightly — a rise means some path
	// started scheduling events it doesn't need.
	EventsPerPortPacket float64 `json:"events_per_port_packet,omitempty"`
	Allocs              uint64  `json:"allocs"`
	AllocsPerPacket     float64 `json:"allocs_per_packet"`
	BytesPerPacket      float64 `json:"bytes_per_packet"`
	Flows               int     `json:"flows"`
	// RetainedStatBytes is the run's logical statistics retention
	// (LoadResult.RetainedStatBytes): per-flow records plus queue
	// samples in exact mode, sketch bucket arrays in streaming mode.
	// Deterministic, so it gates like allocs/packet: the stream-flows
	// family must stay flat as the flow count grows.
	RetainedStatBytes int64 `json:"retained_stat_bytes,omitempty"`
}

// Run is one full harness invocation.
type Run struct {
	Label     string           `json:"label"`
	Quick     bool             `json:"quick"`
	GoVersion string           `json:"go_version"`
	Procs     int              `json:"gomaxprocs"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// outcome is what a scenario body reports back to the measurement
// wrapper: simulated packets and virtual time elapsed.
type outcome struct {
	dataPkts uint64
	portPkts uint64
	flows    int
	simTime  sim.Time
	retained int64
}

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced sizes for CI smoke runs")
		paper    = flag.Bool("paper", false, "add the full 320-host paper-scale FatTree scenarios (slow)")
		label    = flag.String("label", "", "label recorded in the JSON output")
		out      = flag.String("out", "", "write JSON to this file (default: stdout table only)")
		baseline = flag.String("baseline", "", "prior bench JSON; exit 1 if allocs/packet regresses against it")
		perfbase = flag.String("perfbaseline", "", "prior bench JSON; exit 1 if packets/s or events/port-packet regresses against it")
	)
	profiles := prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpccbench:", err)
		os.Exit(1)
	}

	run := Run{Label: *label, Quick: *quick, GoVersion: runtime.Version(), Procs: runtime.GOMAXPROCS(0)}
	add := func(name string, fn func() outcome) {
		run.Scenarios = append(run.Scenarios, measure(name, fn))
	}
	add("fattree-websearch-50", func() outcome { return fattreeWebSearch(*quick) })
	add("incast-16-1", func() outcome { return incast16(*quick) })
	add("parkinglot-4seg", func() outcome { return parkingLot(*quick) })
	// The streaming-statistics memory family: same scenario at 4× the
	// flow count. In sketch mode RetainedStatBytes must stay flat —
	// gateRetained below fails the run if it grows with the flows, and
	// gateStreamAllocs if starting and finishing a flow allocates.
	small, big := 250_000, 1_000_000
	if *quick {
		small, big = 25_000, 100_000
	}
	add(fmt.Sprintf("stream-flows-%dk", small/1000), func() outcome { return streamFlows(small) })
	add(fmt.Sprintf("stream-flows-%dk", big/1000), func() outcome { return streamFlows(big) })
	if *paper {
		add("paper-fattree-websearch", paperFatTree)
	}

	// Profiles cover the measured scenarios only: flush before the
	// reporting and gate paths so their work doesn't pollute the data.
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "hpccbench:", err)
		os.Exit(1)
	}

	fmt.Printf("%-34s %10s %14s %14s %12s %12s %11s %10s %10s\n",
		"scenario", "wall-ms", "data-pkts", "pkts/s", "events", "events/s", "ev/port-pkt", "allocs/pkt", "ret-bytes")
	for _, s := range run.Scenarios {
		fmt.Printf("%-34s %10.1f %14d %14.0f %12d %12.0f %11.3f %10.3f %10d\n",
			s.Name, s.WallMS, s.DataPackets, s.PacketsPerSec, s.Events, s.EventsPerSec, s.EventsPerPortPacket, s.AllocsPerPacket, s.RetainedStatBytes)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(&run, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpccbench:", err)
			os.Exit(1)
		}
	}
	for _, gate := range []func([]ScenarioResult) error{gateRetained, gateStreamAllocs} {
		if err := gate(run.Scenarios); err != nil {
			fmt.Fprintln(os.Stderr, "hpccbench:", err)
			os.Exit(1)
		}
	}
	if *baseline != "" {
		if err := gateAllocs(run, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "hpccbench:", err)
			os.Exit(1)
		}
	}
	if *perfbase != "" {
		if err := gatePerf(run, *perfbase); err != nil {
			fmt.Fprintln(os.Stderr, "hpccbench:", err)
			os.Exit(1)
		}
	}
}

// gateRetained is the streaming-statistics memory gate: across the
// stream-flows family the retained-statistics footprint must not grow
// with the flow count. Sketch bucket occupancy still fills in a little
// between runs, so the gate allows 1.25× over the family minimum —
// exact retention at 4× the flows would blow through that by orders of
// magnitude. Needs no baseline file: the family self-compares.
func gateRetained(rows []ScenarioResult) error {
	var min, max int64
	var minName, maxName string
	for _, s := range rows {
		if !strings.HasPrefix(s.Name, "stream-flows-") {
			continue
		}
		if minName == "" || s.RetainedStatBytes < min {
			min, minName = s.RetainedStatBytes, s.Name
		}
		if maxName == "" || s.RetainedStatBytes > max {
			max, maxName = s.RetainedStatBytes, s.Name
		}
	}
	if minName == "" {
		return nil
	}
	if limit := min + min/4; max > limit {
		return fmt.Errorf("retained-stat-bytes regression: %s retained %d B > limit %d B (1.25x %s's %d B); streaming stats are no longer flat in the flow count",
			maxName, max, limit, minName, min)
	}
	fmt.Printf("retained-stat-bytes gate (stream-flows family): ok (%d..%d B)\n", min, max)
	return nil
}

// streamAllocsLimit is the allocation budget of a stream-flows row, in
// heap objects per data packet. One flow is one packet there, so the
// row measures the flow lifecycle: 7.1 when every flow allocated its
// Flow, callbacks, CC instance and receiver state, ≈ 0.01 with the
// host's free lists (what is left is warm-up, amortized over the run).
const streamAllocsLimit = 0.5

// gateStreamAllocs is the flow-lifecycle allocation gate: with bounded
// retention (streamFlows sets CompletedWindow) starting and finishing a
// flow must not allocate. Baseline-free, like gateRetained: the limit is
// absolute.
func gateStreamAllocs(rows []ScenarioResult) error {
	for _, s := range rows {
		if strings.HasPrefix(s.Name, "stream-flows-") && s.AllocsPerPacket > streamAllocsLimit {
			return fmt.Errorf("flow-lifecycle allocation regression: %s allocates %.3f objects/packet > limit %.1f; per-flow state is no longer recycled",
				s.Name, s.AllocsPerPacket, streamAllocsLimit)
		}
	}
	fmt.Printf("allocs/packet gate (stream-flows family): ok (limit %.1f)\n", streamAllocsLimit)
	return nil
}

// loadBaseline reads a prior bench JSON: either a bare Run or a
// {before, after} record like BENCH_PR2.json, where "after" is the
// baseline.
func loadBaseline(path string) (Run, error) {
	var base Run
	buf, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	var wrapped struct {
		After *Run `json:"after"`
	}
	if err := json.Unmarshal(buf, &wrapped); err == nil && wrapped.After != nil {
		return *wrapped.After, nil
	}
	if err := json.Unmarshal(buf, &base); err != nil {
		return base, fmt.Errorf("baseline %s: %v", path, err)
	}
	return base, nil
}

// gateAllocs compares allocs/packet per scenario against a baseline
// file. Wall-clock never gates here — only the deterministic
// allocation counts do. Baselines are recorded from full runs; quick
// runs amortize fixed startup allocations over far fewer packets, so
// the quick gate is looser.
func gateAllocs(run Run, path string) error {
	base, err := loadBaseline(path)
	if err != nil {
		return err
	}
	byName := map[string]ScenarioResult{}
	for _, s := range base.Scenarios {
		byName[s.Name] = s
	}
	slack, bias := 1.25, 0.02
	if run.Quick && !base.Quick {
		slack, bias = 2.0, 0.75
	}
	for _, s := range run.Scenarios {
		b, ok := byName[s.Name]
		if !ok {
			continue
		}
		if limit := b.AllocsPerPacket*slack + bias; s.AllocsPerPacket > limit {
			return fmt.Errorf("allocs/packet regression in %s: %.3f > limit %.3f (baseline %.3f)",
				s.Name, s.AllocsPerPacket, limit, b.AllocsPerPacket)
		}
	}
	fmt.Printf("allocs/packet gate vs %s: ok\n", path)
	return nil
}

// gatePerf is the throughput-regression gate introduced with the
// demand-driven scheduling work (BENCH_PR9.json). It checks two
// numbers per scenario:
//
//   - packets/s, loosely: wall-clock throughput is machine- and
//     load-sensitive (CI smoke runs share one noisy vCPU), so the gate
//     only catches collapses — half the baseline within the same mode,
//     a quarter when a quick run gates against a full baseline (quick
//     runs amortize startup over far fewer packets).
//   - events/port-packet, tightly: the ratio is deterministic, so any
//     real increase means a code path started scheduling events it
//     used to skip. Same-mode slack is 5%; cross-mode 20% (shorter
//     runs spend proportionally more events on arrivals/teardown).
func gatePerf(run Run, path string) error {
	base, err := loadBaseline(path)
	if err != nil {
		return err
	}
	byName := map[string]ScenarioResult{}
	for _, s := range base.Scenarios {
		byName[s.Name] = s
	}
	ppsFloor, evSlack := 0.5, 1.05
	if run.Quick != base.Quick {
		ppsFloor, evSlack = 0.25, 1.20
	}
	for _, s := range run.Scenarios {
		b, ok := byName[s.Name]
		if !ok {
			continue
		}
		if floor := b.PacketsPerSec * ppsFloor; b.PacketsPerSec > 0 && s.PacketsPerSec < floor {
			return fmt.Errorf("packets/s collapse in %s: %.0f < floor %.0f (baseline %.0f)",
				s.Name, s.PacketsPerSec, floor, b.PacketsPerSec)
		}
		if limit := b.EventsPerPortPacket * evSlack; b.EventsPerPortPacket > 0 && s.EventsPerPortPacket > limit {
			return fmt.Errorf("events/port-packet regression in %s: %.3f > limit %.3f (baseline %.3f); something schedules events it doesn't need",
				s.Name, s.EventsPerPortPacket, limit, b.EventsPerPortPacket)
		}
	}
	fmt.Printf("packets/s + events/port-packet gate vs %s: ok\n", path)
	return nil
}

// measure runs fn with the engine meter attached and GC counters
// bracketed, then derives the throughput metrics.
func measure(name string, fn func() outcome) ScenarioResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	meter := sim.AttachMeter()
	t0 := time.Now()
	oc := fn()
	wall := time.Since(t0)
	meter.Detach()
	runtime.ReadMemStats(&m1)

	allocs := m1.Mallocs - m0.Mallocs
	bytes := m1.TotalAlloc - m0.TotalAlloc
	r := ScenarioResult{
		Name:              name,
		WallMS:            float64(wall.Nanoseconds()) / 1e6,
		SimulatedMS:       oc.simTime.Seconds() * 1e3,
		Events:            meter.Events(),
		DataPackets:       oc.dataPkts,
		PortPackets:       oc.portPkts,
		Allocs:            allocs,
		Flows:             oc.flows,
		RetainedStatBytes: oc.retained,
	}
	if secs := wall.Seconds(); secs > 0 {
		r.EventsPerSec = float64(r.Events) / secs
		r.PacketsPerSec = float64(r.DataPackets) / secs
	}
	if r.DataPackets > 0 {
		r.AllocsPerPacket = float64(allocs) / float64(r.DataPackets)
		r.BytesPerPacket = float64(bytes) / float64(r.DataPackets)
	}
	if r.PortPackets > 0 {
		r.EventsPerPortPacket = float64(r.Events) / float64(r.PortPackets)
	}
	return r
}

// fattreeWebSearch is the paper's §5.3 setup at half scale: WebSearch
// Poisson arrivals at 50% load on the CI-sized FatTree, HPCC with INT.
func fattreeWebSearch(quick bool) outcome {
	s := experiment.LoadScenario{
		Scheme:   mustScheme("hpcc"),
		Topo:     experiment.FatTreeTopo(topology.ScaledFatTree()),
		Traffic:  []workload.Generator{workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.5}},
		MaxFlows: 1200,
		Until:    8 * sim.Millisecond,
		Drain:    20 * sim.Millisecond,
		PFC:      true,
		Seed:     1,
	}
	if quick {
		s.MaxFlows = 200
		s.Until = 2 * sim.Millisecond
		s.Drain = 10 * sim.Millisecond
	}
	return runScenario(s)
}

// paperFatTree is the ROADMAP scale target: WebSearch at 50% load on
// the full 320-host, 16-core/20-agg/20-ToR paper fabric.
func paperFatTree() outcome {
	s := experiment.LoadScenario{
		Scheme:      mustScheme("hpcc"),
		Topo:        experiment.FatTreeTopo(topology.PaperFatTree()),
		Traffic:     []workload.Generator{workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.5}},
		MaxFlows:    12_000,
		Until:       8 * sim.Millisecond,
		Drain:       20 * sim.Millisecond,
		PFC:         true,
		Seed:        1,
		BufferBytes: experiment.BufferFor(320),
		// Paper-scale runs hold hundreds of thousands of flows over a
		// campaign; bound per-host retention like a long campaign would.
		CompletedWindow: 256,
	}
	return runScenario(s)
}

// runScenario is the harness's RunLoad: an error is an invalid
// scenario, and an unmeasured scenario must not land in the recorded
// trajectory.
func runScenario(s experiment.LoadScenario) outcome {
	r, err := experiment.RunLoad(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpccbench:", err)
		os.Exit(1)
	}
	return outcome{dataPkts: r.DataPackets, portPkts: r.PortPackets, flows: r.Started,
		simTime: r.Elapsed, retained: r.RetainedStatBytes}
}

// streamFlows floods a 4-host star with fixed-1KB Poisson flows at 50%
// load in streaming-statistics mode with bounded flow retention — the
// configuration of a long campaign. The scenario exists for two
// numbers: RetainedStatBytes (one flow is one packet, so a million flows
// is cheap to simulate, and the sketch footprint must not move between
// the family's flow counts) and allocs/packet, which here is the cost of
// a flow's whole lifecycle.
func streamFlows(flows int) outcome {
	fixed1KB := workload.MustCDF("fixed-1KB", []workload.Point{{Bytes: 1000, Prob: 0}, {Bytes: 1000, Prob: 1}})
	return runScenario(experiment.LoadScenario{
		Scheme:      mustScheme("hpcc"),
		Topo:        experiment.StarTopo(4),
		Traffic:     []workload.Generator{workload.PoissonSpec{CDF: fixed1KB, Load: 0.5}},
		MaxFlows:    flows,
		Until:       sim.Second, // MaxFlows is the real cutoff
		Drain:       20 * sim.Millisecond,
		PFC:         true,
		Seed:        1,
		SketchStats: true,
		// Bounded retention, as a long campaign runs: evicted flows are
		// recycled, which is what gateStreamAllocs holds the row to.
		CompletedWindow: 256,
	})
}

// incast16 runs repeated 16-to-1 fan-in rounds of 100 KB per sender on
// the §5.4 star fixture.
func incast16(quick bool) outcome {
	rounds := 8
	if quick {
		rounds = 2
	}
	sch := mustScheme("hpcc")
	eng := sim.NewEngine()
	hcfg := host.Config{CC: sch.Factory, INT: sch.INT, BaseRTT: 10 * sim.Microsecond, Seed: 1}
	scfg := fabric.SwitchConfig{PFCEnabled: true, INTEnabled: sch.INT, Seed: 1}
	nw := topology.Star(eng, 17, 100*sim.Gbps, sim.Microsecond, hcfg, scfg)

	flows := 0
	var startRound func()
	startRound = func() {
		if rounds == 0 {
			return
		}
		rounds--
		pending := 16
		for s := 0; s < 16; s++ {
			flows++
			nw.StartFlow(s, 16, 100_000, func(*host.Flow) {
				pending--
				if pending == 0 {
					startRound()
				}
			})
		}
	}
	startRound()
	eng.Run()
	return outcome{dataPkts: flowPackets(nw), portPkts: portPackets(nw), flows: flows, simTime: eng.Now()}
}

// parkingLot runs the §3.2 multi-bottleneck chain: one long flow across
// every segment plus a local crossing flow per segment.
func parkingLot(quick bool) outcome {
	size := int64(4 << 20)
	if quick {
		size = 1 << 20
	}
	sch := mustScheme("hpcc")
	eng := sim.NewEngine()
	const segments = 4
	topo := experiment.ParkingLotTopo(segments, 100*sim.Gbps)
	hcfg := host.Config{CC: sch.Factory, INT: sch.INT, BaseRTT: topo.BaseRTT(), Seed: 1}
	scfg := fabric.SwitchConfig{PFCEnabled: true, INTEnabled: sch.INT, Seed: 1}
	nw := topo.Build(eng, hcfg, scfg)

	// Host layout per topology.ParkingLot: 0/1 are the long pair, then
	// (2+2i, 3+2i) are segment i's local sender/receiver.
	flows := 1
	nw.StartFlow(0, 1, 2*size, nil)
	for i := 0; i < segments; i++ {
		flows++
		nw.StartFlow(2+2*i, 3+2*i, size, nil)
	}
	eng.Run()
	return outcome{dataPkts: flowPackets(nw), portPkts: portPackets(nw), flows: flows, simTime: eng.Now()}
}

func flowPackets(nw *topology.Network) uint64 {
	var n uint64
	for _, h := range nw.Hosts {
		for _, f := range h.Flows() {
			n += f.PacketsSent()
		}
	}
	return n
}

func portPackets(nw *topology.Network) uint64 {
	var n uint64
	for _, h := range nw.Hosts {
		for _, p := range h.Ports() {
			n += p.PacketsSent()
		}
	}
	for _, p := range nw.SwitchPorts() {
		n += p.PacketsSent()
	}
	return n
}

func mustScheme(name string) experiment.Scheme {
	s, err := experiment.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}
