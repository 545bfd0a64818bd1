package main

// surface.go is the benchmark's whole view of the simulator: the only
// file under bench/ that imports hpcc/internal/... or the public hpcc
// package. Every workload and micro-driver calls the simulator through
// the functions below, so a refactor that changes one of the pinned
// signatures (listed in README.md) shows up here and nowhere else.
// Deliberately unused: sim.AttachMeter, the Calendar scheduler, Shards
// and Speculate — ROADMAP items 2–3 may delete them and the benchmark
// must not pin them.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hpcc"
	"hpcc/internal/campaign"
	"hpcc/internal/cc"
	"hpcc/internal/experiment"
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/report"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// simOut is what one workload run reports back: the deterministic
// simulated statistics (digested and checked by the caller) plus the
// campaign runner's own wall-clock accounting.
type simOut struct {
	Load bool // false for campaign-figs: the packet/flow fields are unset

	DataPkts, PortPkts, Events, Drops   uint64
	Flows, Censored                     int
	SlowP50, SlowP95, SlowP99, SlowP999 float64
	QueueP50, QueueP99, QueueMax        float64 // bytes
	PauseFrac                           float64
	RetainedBytes                       int64

	Jobs, Workers int
	CampaignWall  time.Duration // campaign.Result.Wall
	JobWall       time.Duration // Σ job wall
	Text          []byte        // rendered report (campaign-figs only)
}

// workloadDef is one benchmark workload: how to set it up (timed and
// discarded) and how to run it.
type workloadDef struct {
	Name string
	// Lossless workloads must finish every flow without a drop; the
	// lossy one must drop (it exists to exercise retransmission).
	Lossless bool
	// Scheme is the cc.<scheme> micro-driver that predicts this
	// workload ("" for the campaign, which runs all of them).
	Scheme string
	// WantFlows is the exact flow count the run must start (0 when the
	// arrival window, not a cap, ends the traffic).
	WantFlows int
	// Streaming says the run's FCT statistics are sketches, not records.
	Streaming bool
	setup     func()
	run       func() (simOut, error)
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{
	"paper-fattree-websearch",
	"stream-flows-4m",
	"fattree-dcqcn-lossy-mix",
	"campaign-figs",
}

// campaignSelectors is what `hpccexp fig9 … extra-rpc-fattree` runs:
// all nine scheme variants, three flow-control modes, the manual
// Network path and table rendering.
var campaignSelectors = []string{"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "extra-rpc-fattree"}

// fixedSeed is the seed of the two workloads whose inputs are the same
// for every --seed (see their definitions for why).
const fixedSeed = 1

// campaignScale caps the load figures (fig10/11/12, extra-rpc; 400–800
// flows by default) at 50 flows so one campaign is a ≈2.5 s unit like
// the other workloads; horizons, jobs and code paths are hpccexp's
// defaults.
var campaignScale = experiment.Scale{MaxFlows: 50}

func mustScheme(name string) experiment.Scheme {
	s, err := experiment.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

func fixedCDF(name string, size int64) *workload.CDF {
	return workload.MustCDF(name, []workload.Point{{Bytes: size, Prob: 0}, {Bytes: size, Prob: 1}})
}

// stratified builds a seed-shuffled arrival trace whose total work does
// not depend on the seed. The heavy-tailed CDFs make a Poisson draw of a
// few hundred flows differ by ±15 % in bytes from seed to seed — more
// than any regression bound — so the sizes are the CDF's n evenly spaced
// quantiles, the same multiset for every seed. The seed decides which
// flow gets which size, which host pair carries it and when it arrives:
// uniform instants over the window that n flows at `load` fill, i.e. a
// Poisson process conditioned on its count. It returns the trace (pulled
// lazily, one pending arrival at a time) and that window.
func stratified(cdf *workload.CDF, n, hosts int, rate sim.Rate, load float64, seed int64) (workload.ArrivalFunc, sim.Time) {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]workload.FlowSpec, n)
	var bytes float64
	for i := range flows {
		flows[i].Size = cdf.Quantile((float64(i) + 0.5) / float64(n))
		bytes += float64(flows[i].Size)
	}
	rng.Shuffle(n, func(i, j int) { flows[i].Size, flows[j].Size = flows[j].Size, flows[i].Size })
	window := bytes / (load * float64(hosts) * rate.BytesPerSec()) * float64(sim.Second)
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * window
	}
	sort.Float64s(at)
	for i := range flows {
		flows[i].At = sim.Time(at[i])
		flows[i].Src = rng.Intn(hosts)
		flows[i].Dst = rng.Intn(hosts - 1)
		if flows[i].Dst >= flows[i].Src {
			flows[i].Dst++
		}
	}
	return func(i int) (workload.FlowSpec, bool) {
		if i >= n {
			return workload.FlowSpec{}, false
		}
		return flows[i], true
	}, sim.Time(window)
}

// newWorkload resolves a workload by name. One run is a ≈2 s unit on a
// 2-core shared box: the harness repeats units and reports medians,
// because this class of machine is quiet most of the time but slows by
// 10–45 % in spells, which a median over short units rejects better
// than one 10 s run does. smoke cuts every run to well under a second
// (same code paths, same invariants).
func newWorkload(name string, seed int64, smoke bool) (workloadDef, error) {
	var s experiment.LoadScenario
	w := workloadDef{Name: name, Lossless: true}
	switch name {
	case "paper-fattree-websearch":
		// Steady-state forwarding at paper scale: 320 hosts, WebSearch at
		// 50 % load. 500 flows a unit (2500 over the five units of a 10 s
		// run); scheduler depth and cache footprint come from the fabric
		// size, not the horizon.
		w.Scheme = "hpcc"
		fat := topology.PaperFatTree()
		flows := 700
		if smoke {
			flows = 25
		}
		traffic, window := stratified(workload.WebSearch(), flows, fat.NumHosts(), fat.HostRate, 0.5, seed)
		s = experiment.LoadScenario{
			Scheme:      mustScheme("hpcc"),
			Topo:        experiment.FatTreeTopo(fat),
			Traffic:     []workload.Generator{traffic},
			Until:       window,
			Drain:       10 * sim.Millisecond,
			PFC:         true,
			BufferBytes: experiment.BufferFor(fat.NumHosts()),
		}
		w.WantFlows = flows
	case "stream-flows-4m":
		// One flow = one packet: flow setup/teardown, the Poisson arrival
		// generator, the sketch and the Go allocator do the work. 800 k
		// flows a unit, 4 M over a 10 s run. Fixed sizes, so the work is
		// seed-independent as it stands. The variant that retains every
		// completed flow is rejected (2× run-to-run spread from heap
		// growth); retention shows in peak_rss_mb instead.
		w.Scheme = "hpcc"
		s = experiment.LoadScenario{
			Scheme:          mustScheme("hpcc"),
			Topo:            experiment.StarTopo(4),
			Traffic:         []workload.Generator{workload.PoissonSpec{CDF: fixedCDF("fixed-1KB", 1000), Load: 0.5}},
			MaxFlows:        800_000,
			Until:           sim.Second, // MaxFlows is the real cutoff
			Drain:           20 * sim.Millisecond,
			PFC:             true,
			SketchStats:     true,
			CompletedWindow: 256,
		}
		if smoke {
			s.MaxFlows = 40_000
		}
		w.WantFlows, w.Streaming = s.MaxFlows, s.SketchStats
	case "fattree-dcqcn-lossy-mix":
		// The same layers used differently: ECN marking with an RNG,
		// timer-driven rate control, drop + go-back-N retransmit, RDMA
		// READ beside WRITE. FB_Hadoop Poisson at 30 % load, 8-to-1 incast
		// of 500 KB at 2 %, WebSearch READs at 10 %. The traffic does not
		// depend on the seed: loss recovery turns any change of pattern
		// into a different set of drops, and over ten seeds that moved
		// packets by ±5 %, allocations by ±10 % and peak RSS by 27 % (IQR)
		// — simulated-network variance, which this benchmark of the
		// simulator's own speed has to keep out of its bounds.
		w.Scheme = "dcqcn"
		w.Lossless = false
		fat := topology.ScaledFatTree()
		s = experiment.LoadScenario{
			Scheme: mustScheme("dcqcn"),
			Topo:   experiment.FatTreeTopo(fat),
			Traffic: []workload.Generator{
				workload.PoissonSpec{CDF: workload.FBHadoop(), Load: 0.3},
				workload.IncastSpec{FanIn: 8, Size: 500_000, LoadFrac: 0.02},
				workload.RPCSpec{CDF: workload.WebSearch(), Load: 0.1},
			},
			MaxFlows:    20000,
			Until:       3500 * sim.Microsecond,
			Drain:       40 * sim.Millisecond,
			PFC:         false,
			FlowCtl:     host.GoBackN,
			BufferBytes: experiment.BufferFor(fat.NumHosts()),
		}
		if smoke {
			s.Until = 500 * sim.Microsecond
		}
		seed = fixedSeed
	case "campaign-figs":
		// What hpccexp does, and the only workload with more than one
		// busy thread. Its inputs are the paper's figures at base seed 1,
		// whatever the seed: the figures draw their own heavy-tailed
		// Poisson traffic, and a change of base seed moved the campaign's
		// wall time by 16 % (IQR over ten seeds, default scale).
		sel, scale := campaignSelectors, campaignScale
		if smoke {
			sel, scale = []string{"fig9", "fig13"}, experiment.Scale{}
		}
		w.setup = func() { _, _ = campaignJobs(sel, scale) }
		w.run = func() (simOut, error) { return runCampaign(sel, scale) }
		return w, nil
	default:
		return w, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	s.Seed = seed
	w.setup = func() { experiment.StartManual(sim.NewEngine(), s) }
	w.run = func() (simOut, error) { return runLoad(s) }
	return w, nil
}

// runLoad executes one load scenario through experiment.RunLoad wrapped
// in a one-job campaign.Run, so the event count comes from
// campaign.Result.Events() the same way hpccexp gets it.
func runLoad(s experiment.LoadScenario) (simOut, error) {
	var lr *experiment.LoadResult
	var runErr error
	res := campaign.Run(campaign.Config{Parallel: 1, BaseSeed: s.Seed}, []campaign.Job{{
		Name: "load",
		Run: func(int64) []*experiment.Table {
			lr, runErr = experiment.RunLoad(s)
			return nil
		},
	}})
	out := campaignOut(res)
	out.Load = true
	if err := res.Err(); err != nil {
		return out, err
	}
	if runErr != nil {
		return out, runErr
	}
	out.DataPkts, out.PortPkts, out.Drops = lr.DataPackets, lr.PortPackets, lr.Drops
	out.Flows, out.Censored = lr.Started, lr.Censored
	out.SlowP50 = lr.FCT.SlowdownQuantile(50)
	out.SlowP95 = lr.FCT.SlowdownQuantile(95)
	out.SlowP99 = lr.FCT.SlowdownQuantile(99)
	out.SlowP999 = lr.FCT.SlowdownQuantile(99.9)
	out.QueueP50, out.QueueP99, out.QueueMax = lr.Queue.P50, lr.Queue.P99, lr.Queue.Max
	out.PauseFrac = lr.PauseFrac
	out.RetainedBytes = lr.RetainedStatBytes
	return out, nil
}

func campaignOut(res *campaign.Result) simOut {
	out := simOut{Events: res.Events(), Jobs: len(res.Jobs), Workers: res.Config.Parallel, CampaignWall: res.Wall}
	if out.Workers > out.Jobs {
		out.Workers = out.Jobs // campaign.Run never starts more workers than units
	}
	for i := range res.Jobs {
		out.JobWall += res.Jobs[i].Wall
	}
	return out
}

// campaignJobs is hpccexp's Match + job construction.
func campaignJobs(selectors []string, scale experiment.Scale) ([]campaign.Job, error) {
	scens, err := experiment.Match(selectors)
	if err != nil {
		return nil, err
	}
	jobs := make([]campaign.Job, len(scens))
	for i, sc := range scens {
		run := sc.Run
		jobs[i] = campaign.Job{Name: sc.Name, Run: func(seed int64) []*experiment.Table {
			return run(experiment.Params{Scale: scale, Fat: topology.ScaledFatTree(), Seed: seed})
		}}
	}
	return jobs, nil
}

// campaignWorkers is min(nproc, 4): enough to show the worker pool,
// small enough that the row means the same on a laptop and a server.
func campaignWorkers() int { return min(runtime.GOMAXPROCS(0), 4) }

// runCampaign is what hpccexp does: Match → campaign.Run → WriteText +
// WriteJSON, here into a buffer.
func runCampaign(selectors []string, scale experiment.Scale) (simOut, error) {
	jobs, err := campaignJobs(selectors, scale)
	if err != nil {
		return simOut{}, err
	}
	res := campaign.Run(campaign.Config{Parallel: campaignWorkers(), BaseSeed: fixedSeed}, jobs)
	out := campaignOut(res)
	if err := res.Err(); err != nil {
		return out, err
	}
	out.Text, err = render(res)
	return out, err
}

// render writes the text and JSON reports; only the text is kept (the
// JSON carries wall-clock fields, so it cannot be digested).
func render(res *campaign.Result) ([]byte, error) {
	var text, doc bytes.Buffer
	if err := report.WriteText(&text, res); err != nil {
		return nil, err
	}
	if err := report.WriteJSON(&doc, res, map[string]string{"scale": "default"}); err != nil {
		return nil, err
	}
	return text.Bytes(), nil
}

// ---- micro-driver kernels -------------------------------------------
//
// Each kernel constructor returns a func(n) that performs n operations
// against one layer's exported API; micro.go owns the timing loops.

// holdKernel is the classic hold model: the engine carries depth
// pending events; each op schedules one more (Engine.After) and fires
// the earliest (Engine.Step).
func holdKernel(depth int) func(n int) {
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(1))
	nop := func() {}
	delay := func() sim.Time { return sim.Time(1+rng.Intn(1000)) * sim.Nanosecond }
	for i := 0; i < depth; i++ {
		eng.After(delay(), nop)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			eng.After(delay(), nop)
			eng.Step()
		}
	}
}

// cancelKernel arms and cancels a timer over a 1k-deep queue — the
// per-flow rate/alpha/RTO timer pattern.
func cancelKernel() func(n int) {
	eng := sim.NewEngine()
	nop := func() {}
	for i := 0; i < 1000; i++ {
		eng.After(sim.Time(1+i)*sim.Microsecond, nop)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			eng.Cancel(eng.After(sim.Time(1+i%997)*sim.Nanosecond, nop))
		}
	}
}

func poolKernel() func(n int) {
	pool := packet.NewPool()
	return func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get())
		}
	}
}

func cdfKernel() func(n int) {
	cdf := workload.WebSearch()
	rng := rand.New(rand.NewSource(1))
	var sink int64
	return func(n int) {
		for i := 0; i < n; i++ {
			sink += cdf.Sample(rng)
		}
		_ = sink
	}
}

func sketchKernel() func(n int) {
	sk := stats.NewSketch(0)
	rng := rand.New(rand.NewSource(1))
	return func(n int) {
		for i := 0; i < n; i++ {
			sk.Add(1 + 50*rng.Float64())
		}
	}
}

// fctKernel adds records to an FCT set, starting a fresh set every
// million records: exact mode appends, so the cost includes slice growth
// as in a real run while the driver's memory stays bounded; streaming
// mode updates the sketches.
func fctKernel(streaming bool) func(n int) {
	fresh := func() stats.FCTSet {
		if streaming {
			return stats.NewStreamingFCT(nil, 0)
		}
		return stats.FCTSet{}
	}
	return func(n int) {
		set := fresh()
		for i := 0; i < n; i++ {
			if i%(1<<20) == 0 {
				set = fresh()
			}
			size := int64(1000 + (i%977)*1000)
			set.Add(stats.FCTRecord{Size: size, FCT: sim.Time(20+i%89) * sim.Microsecond, Ideal: 13 * sim.Microsecond})
		}
	}
}

// buildKernel builds the 320-host paper fabric (FatTreeSpec.Build).
func buildKernel() func(n int) {
	sch := mustScheme("hpcc")
	spec := topology.PaperFatTree()
	return func(n int) {
		for i := 0; i < n; i++ {
			hcfg := host.Config{CC: sch.Factory, INT: true, BaseRTT: spec.BaseRTT(), Seed: 1}
			scfg := fabric.SwitchConfig{BufferBytes: experiment.BufferFor(320), PFCEnabled: true, INTEnabled: true, Seed: 1}
			spec.Build(sim.NewEngine(), hcfg, scfg)
		}
	}
}

// ccSchemes are the nine experiment.ByName variants.
var ccSchemes = []string{"hpcc", "hpcc-rxrate", "hpcc-perack", "hpcc-perrtt", "dcqcn", "dcqcn+win", "timely", "timely+win", "dctcp"}

// ackStream synthesises the ACK stream of one flow crossing five
// 100 Gbps hops at ≈95 % utilisation with a slowly breathing queue on
// the middle hop: one ACK per 1 KB packet every 84 ns.
type ackStream struct {
	now  sim.Time
	seq  int64
	tx   uint64
	hops [5]packet.Hop
}

const ackGap = 84 * sim.Nanosecond

func (a *ackStream) next(i int) (ece bool) {
	a.now += ackGap
	a.seq += 1000
	a.tx += 1000
	for h := range a.hops {
		a.hops[h] = packet.Hop{B: 100 * sim.Gbps, TS: a.now - sim.Time(5-h)*sim.Microsecond, TxBytes: a.tx, RxBytes: a.tx}
	}
	a.hops[2].QLen = int64(i%4096) * 16
	return i%64 == 0
}

// ccKernel drives Factory() → Init → OnAck for one scheme. Timers the
// scheme arms through Env.Schedule (DCQCN's alpha and rate clocks) fire
// as the synthetic clock passes them; a CNP arrives every 4096 ACKs.
func ccKernel(scheme string) func(n int) {
	alg := mustScheme(scheme).Factory()
	var a ackStream
	type timer struct {
		at sim.Time
		fn func()
	}
	var timers []timer
	alg.Init(cc.Env{
		Now:      func() sim.Time { return a.now },
		Schedule: func(d sim.Time, fn func()) { timers = append(timers, timer{a.now + d, fn}) },
		LineRate: 100 * sim.Gbps,
		BaseRTT:  13 * sim.Microsecond,
		MTU:      packet.DefaultMTU,
		Seed:     1,
	})
	i := 0
	var ev cc.AckEvent
	return func(n int) {
		for ; n > 0; n-- {
			i++
			ece := a.next(i)
			for k := 0; k < len(timers); k++ {
				if t := timers[k]; t.at <= a.now {
					timers = append(timers[:k], timers[k+1:]...)
					k--
					t.fn()
				}
			}
			if i%4096 == 0 {
				alg.OnCNP(a.now)
			}
			ev = cc.AckEvent{Now: a.now, RTT: 14 * sim.Microsecond, AckSeq: a.seq, SndNxt: a.seq + 150_000,
				AckedBytes: 1000, ECE: ece, Hops: a.hops[:], PathID: 7}
			alg.OnAck(&ev)
		}
	}
}

// senderKernel is the same stream through the public hpcc.Sender.
func senderKernel() func(n int) {
	var a ackStream
	s := hpcc.NewSender(hpcc.SenderConfig{LineRateBps: 100e9, BaseRTT: 13 * time.Microsecond},
		func() time.Duration { return time.Duration(a.now / sim.Nanosecond) })
	hops := make([]hpcc.INTHop, len(a.hops))
	i := 0
	return func(n int) {
		for ; n > 0; n-- {
			i++
			a.next(i)
			for h, r := range a.hops {
				hops[h] = hpcc.INTHop{BandwidthBps: int64(r.B), Timestamp: time.Duration(r.TS / sim.Nanosecond),
					TxBytes: r.TxBytes, QueueBytes: r.QLen}
			}
			s.OnAck(hpcc.Ack{RTT: 14 * time.Microsecond, AckSeq: a.seq, SndNxt: a.seq + 150_000, Hops: hops, PathID: 7})
		}
	}
}

// netRun is one hand-driven simulation's cost.
type netRun struct {
	Wall               time.Duration
	DataPkts, PortPkts uint64
	Flows              int
	Mallocs            uint64
}

// runManual builds an HPCC network through experiment.StartManual,
// starts `flows` back-to-back flows of `size` bytes from host 0 to
// host 1 (each starts when the previous one completes) and runs the
// engine dry.
func runManual(topo experiment.Topo, flows int, size int64) netRun {
	eng := sim.NewEngine()
	m := experiment.StartManual(eng, experiment.LoadScenario{
		Scheme: mustScheme("hpcc"), Topo: topo, PFC: true, Seed: 1, CompletedWindow: 256,
		Until: sim.Second,
	})
	nw := m.Network
	left := flows
	var next func(*host.Flow)
	next = func(*host.Flow) {
		if left > 0 {
			left--
			nw.StartFlow(0, 1, size, next)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	next(nil)
	eng.Run()
	out := netRun{Wall: time.Since(t0), Flows: flows}
	runtime.ReadMemStats(&m1)
	out.Mallocs = m1.Mallocs - m0.Mallocs
	for _, h := range nw.Hosts {
		_, pkts := h.EvictedFlows()
		out.DataPkts += pkts
		for _, f := range h.Flows() {
			out.DataPkts += f.PacketsSent()
		}
		for _, p := range h.Ports() {
			out.PortPkts += p.PacketsSent()
		}
	}
	for _, p := range nw.SwitchPorts() {
		out.PortPkts += p.PacketsSent()
	}
	return out
}

// starRun and chainRun carry the same flows over one switch and over
// the five switches of a 4-segment parking lot: the difference is pure
// switch forwarding (hosts 0 and 1 are the chain's end-to-end pair).
func starRun(flows int, size int64) netRun { return runManual(experiment.StarTopo(2), flows, size) }

func chainRun(flows int, size int64) netRun {
	return runManual(experiment.ParkingLotTopo(4, 100*sim.Gbps), flows, size)
}

// dispatchRun pushes n no-op jobs through the campaign worker pool.
func dispatchRun(n int) time.Duration {
	jobs := make([]campaign.Job, n)
	for i := range jobs {
		jobs[i] = campaign.Job{Name: "noop", Run: func(int64) []*experiment.Table { return nil }}
	}
	return campaign.Run(campaign.Config{Parallel: campaignWorkers()}, jobs).Wall
}

// renderKernel runs a small campaign once (the fig9 family and fig13:
// eight tables) and returns a kernel that renders it as text and JSON.
func renderKernel() (func(n int), error) {
	jobs, err := campaignJobs([]string{"fig9", "fig13"}, experiment.Scale{})
	if err != nil {
		return nil, err
	}
	res := campaign.Run(campaign.Config{Parallel: 1}, jobs)
	if err := res.Err(); err != nil {
		return nil, err
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, err := render(res); err != nil {
				panic(err) // writes go to a bytes.Buffer and cannot fail
			}
		}
	}, nil
}
