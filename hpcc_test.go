package hpcc_test

import (
	"math"
	"testing"
	"time"

	"hpcc"
	"hpcc/internal/experiment"
	"hpcc/internal/sim"
)

func TestSenderStandalone(t *testing.T) {
	var now time.Duration
	s := hpcc.NewSender(hpcc.SenderConfig{
		LineRateBps: 100e9,
		BaseRTT:     10 * time.Microsecond,
	}, func() time.Duration { return now })

	// W_init = 12.5 GB/s × 10 µs = 125 KB.
	if w := s.WindowBytes(); math.Abs(w-125_000) > 1 {
		t.Fatalf("W_init = %v, want 125000", w)
	}
	if r := s.RateBps(); r != 100e9 {
		t.Fatalf("initial rate = %v", r)
	}

	// First ACK records the path.
	hop := func(ts time.Duration, tx uint64, q int64) []hpcc.INTHop {
		return []hpcc.INTHop{{BandwidthBps: 100e9, Timestamp: ts, TxBytes: tx, QueueBytes: q}}
	}
	s.OnAck(hpcc.Ack{RTT: 10 * time.Microsecond, AckSeq: 1000, SndNxt: 1_000_000, Hops: hop(0, 0, 125_000), PathID: 1})
	// Congested link: txRate = line, queue = 1 BDP ⇒ U = 2 ⇒ halve.
	now = 10 * time.Microsecond
	s.OnAck(hpcc.Ack{RTT: 10 * time.Microsecond, AckSeq: 2000, SndNxt: 1_001_000, Hops: hop(10*time.Microsecond, 125_000, 125_000), PathID: 1})
	if u := s.Utilization(); math.Abs(u-2) > 1e-9 {
		t.Fatalf("U = %v, want 2", u)
	}
	if w := s.WindowBytes(); w > 70_000 || w < 50_000 {
		t.Fatalf("W after congestion = %v, want ≈ 59.4K", w)
	}
}

func TestNetworkMicro(t *testing.T) {
	net, err := hpcc.Experiment{Scheme: "hpcc", Topology: hpcc.Star{Hosts: 4}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	f := net.StartFlow(0, 3, 1<<20)
	net.RunUntilIdle()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if f.Acked() != 1<<20 {
		t.Fatalf("acked = %d", f.Acked())
	}
	if f.FCT() <= 0 || f.FCT() > time.Millisecond {
		t.Fatalf("FCT = %v", f.FCT())
	}
	if s := f.Slowdown(); s < 1 || s > 3 {
		t.Fatalf("slowdown = %v", s)
	}
	if net.Drops() != 0 {
		t.Fatalf("drops = %d", net.Drops())
	}
}

func TestNetworkSchemesAll(t *testing.T) {
	for _, scheme := range hpcc.SchemeNames() {
		net, err := hpcc.Experiment{Scheme: scheme, Topology: hpcc.Star{Hosts: 3, LinkRateGbps: 25}}.Start()
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		f := net.StartFlow(0, 2, 200_000)
		net.RunUntilIdle()
		if !f.Done() {
			t.Fatalf("%s: flow did not complete", scheme)
		}
	}
}

func TestNetworkIncastTrace(t *testing.T) {
	net, err := hpcc.Experiment{Scheme: "hpcc", Topology: hpcc.Star{Hosts: 9}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	trace := net.TraceQueues(time.Microsecond, 300*time.Microsecond)
	var flows []*hpcc.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, net.StartFlow(i, 8, 200_000))
	}
	net.Run(400 * time.Microsecond)
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("incast flow %d unfinished", i)
		}
	}
	if len(*trace) == 0 {
		t.Fatal("no queue samples")
	}
	peak := int64(0)
	for _, p := range *trace {
		if p.TotalBytes > peak {
			peak = p.TotalBytes
		}
	}
	if peak == 0 {
		t.Fatal("incast never built a queue")
	}
	if net.PFCPauseFraction() != 0 {
		t.Fatal("HPCC triggered PFC during a modest incast")
	}
}

// Degenerate times on a Network are bounded: a zero trace interval is
// the 10 µs default, a negative one samples nothing, and a negative
// start delay starts the flow now.
func TestNetworkDegenerateTimes(t *testing.T) {
	net, err := hpcc.Experiment{Topology: hpcc.Star{Hosts: 4}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	none := net.TraceQueues(-time.Microsecond, 20*time.Microsecond)
	f := net.StartFlowAt(-time.Microsecond, 0, 1, 1000)
	def := net.TraceQueues(0, 20*time.Microsecond)
	net.Run(25 * time.Microsecond)
	if len(*def) != 2 {
		t.Errorf("TraceQueues(0, 20µs) took %d samples in 25µs, want 2 (every 10µs)", len(*def))
	}
	if len(*none) != 0 {
		t.Errorf("TraceQueues with a negative interval took %d samples, want none", len(*none))
	}
	if !f.Done() {
		t.Error("StartFlowAt(-1µs) flow did not complete")
	}
}

func TestNetworkScheduledFlowAndStop(t *testing.T) {
	net, err := hpcc.Experiment{Topology: hpcc.Star{Hosts: 3, LinkRateGbps: 25}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	var progressed int64
	f := net.StartFlowAt(100*time.Microsecond, 0, 2, 1<<40)
	f.OnProgress(func(n int64) { progressed += n })
	net.Run(600 * time.Microsecond)
	f.Stop()
	net.Run(100 * time.Microsecond)
	if progressed == 0 {
		t.Fatal("scheduled flow never progressed")
	}
	if !f.Done() {
		t.Fatal("Stop did not mark the flow done")
	}
}

func TestRunLoadExperiment(t *testing.T) {
	res, err := hpcc.Experiment{
		Scheme:   "hpcc",
		Topology: hpcc.Pod{},
		Traffic:  []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.3}},
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
	if res.Drops != 0 {
		t.Fatalf("drops = %d", res.Drops)
	}
	if len(res.BucketP95) != 10 {
		t.Fatalf("buckets = %d", len(res.BucketP95))
	}
}

func TestNetworkParkingLot(t *testing.T) {
	net, err := hpcc.Experiment{Topology: hpcc.ParkingLot{Segments: 2}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if net.NumHosts() != 6 {
		t.Fatalf("hosts = %d, want 6 (2 long + 2 per segment)", net.NumHosts())
	}
	long := net.StartFlow(0, 1, 500_000)
	local := net.StartFlow(2, 3, 500_000)
	net.RunUntilIdle()
	if !long.Done() || !local.Done() {
		t.Fatal("parking-lot flows did not complete")
	}
}

func TestNetworkRDMARead(t *testing.T) {
	net, err := hpcc.Experiment{Topology: hpcc.Star{Hosts: 3}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	net.Read(0, 2, 250_000, func() { done++ })
	net.Read(1, 2, 125_000, func() { done++ })
	net.RunUntilIdle()
	if done != 2 {
		t.Fatalf("READ completions = %d, want 2", done)
	}
}

// Appendix A.3: HPCC reacts to the most loaded link on its path, so on
// a two-segment parking lot the long flow crossing both congested links
// converges to proportional fairness — about C/3 against each local
// flow's 2C/3 — not max-min's C/2 each. An RDMA READ then crosses the
// busy chain.
func TestParkingLotProportionalShare(t *testing.T) {
	const segments = 2
	net, err := hpcc.Experiment{Topology: hpcc.ParkingLot{Segments: segments}}.Start()
	if err != nil {
		t.Fatal(err)
	}
	// The long flow is host 0 -> host 1; the local flow of segment i is
	// host 2+2i -> host 3+2i.
	flows := []*hpcc.Flow{net.StartFlow(0, 1, 1<<40)}
	for i := 0; i < segments; i++ {
		flows = append(flows, net.StartFlow(2+2*i, 3+2*i, 1<<40))
	}
	net.Run(2 * time.Millisecond) // converge
	before := make([]int64, len(flows))
	for i, f := range flows {
		before[i] = f.Acked()
	}
	const window = 2 * time.Millisecond
	net.Run(window)
	gbps := make([]float64, len(flows))
	for i, f := range flows {
		gbps[i] = float64(f.Acked()-before[i]) * 8 / window.Seconds() / 1e9
	}
	long := gbps[0]
	for i, local := range gbps[1:] {
		if share := long / (long + local); math.Abs(share-1.0/3) > 0.03 {
			t.Errorf("segment %d: long flow %.1f Gbps, local %.1f Gbps: long share %.3f, want 1/3 ± 0.03 (proportional fairness)",
				i, long, local, share)
		}
		if total := long + local; total < 80 || total > 100 {
			t.Errorf("segment %d carries %.1f Gbps, want 80-100 of its 100 Gbps", i, total)
		}
	}

	took := time.Duration(-1)
	start := net.Now()
	net.Read(1, 0, 1<<20, func() { took = net.Now() - start })
	net.Run(5 * time.Millisecond)
	if took < 0 {
		t.Fatal("a 1 MB READ across the busy chain did not complete in 5 ms")
	}
}

// The public Experiment path and the catalogue's Figure 10 build the
// same runs: the same spec through hpcc.Experiment and through
// experiment.Fig10 gives the same flows, tails, queues and events,
// cell by cell.
func TestExperimentMatchesFig10(t *testing.T) {
	const flows = 60
	fig := experiment.Fig10(experiment.Scale{MaxFlows: flows, Until: 2 * sim.Millisecond, Drain: 8 * sim.Millisecond, Seed: 1})
	type cell struct {
		Scheme                                string
		Flows, Censored                       int
		P50, P99, ShortP99, QueueP99KB, Pause float64
		Drops, Events                         uint64
	}
	for r, load := range []float64{0.3, 0.5} {
		for c, scheme := range []string{"hpcc", "dcqcn"} {
			res, err := hpcc.Experiment{
				Scheme:   scheme,
				Topology: hpcc.Pod{},
				Traffic:  []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: load}},
				MaxFlows: flows,
				Horizon:  2 * time.Millisecond,
				Drain:    8 * time.Millisecond,
				Seed:     1,
			}.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := cell{res.Scheme, res.Flows, res.Censored, res.SlowdownP50, res.SlowdownP99,
				res.ShortFlowP99Slowdown, res.QueueP99KB, res.PFCPauseFraction, res.Drops, res.Events}
			lr := fig.Results[r][c]
			want := cell{lr.Scheme, lr.FCT.Count(), lr.Censored, lr.FCT.SlowdownQuantile(50), lr.FCT.SlowdownQuantile(99),
				lr.FCT.ShortSlowdownQuantile(99), lr.Queue.P99 / 1024, lr.PauseFrac, lr.Drops, lr.Events}
			if got != want {
				t.Errorf("%s at load %v:\nExperiment %+v\nFig10      %+v", scheme, load, got, want)
			}
		}
	}
}

// Network.StartFlow, StartFlowAt and OnProgress reproduce Figure 9a/9b
// exactly: a long flow into host 2 of a 25 Gbps star, and a 1 MB flow
// joining it at 500 µs. The long flow's goodput in every 50 µs bin and
// the short flow's FCT equal the catalogue figure's, for both schemes.
func TestNetworkMatchesFig9LongShort(t *testing.T) {
	const bin = 50 * time.Microsecond
	fig := experiment.Fig09LongShort(0, 1)
	for c, scheme := range []string{"hpcc", "dcqcn"} {
		run := fig.Results[0][c]
		net, err := hpcc.Experiment{Scheme: scheme, Topology: hpcc.Star{Hosts: 3, LinkRateGbps: 25}}.Start()
		if err != nil {
			t.Fatal(err)
		}
		series := run.Goodput(0)
		bins := make([]int64, len(series))
		long := net.StartFlow(0, 2, 1<<40)
		long.OnProgress(func(n int64) {
			if i := int(net.Now() / bin); i < len(bins) {
				bins[i] += n
			}
		})
		short := net.StartFlowAt(500*time.Microsecond, 1, 2, 1<<20)
		net.Run(3 * time.Millisecond)

		if net.Scheme() != fig.Cols[c] {
			t.Fatalf("column %d is %s, the network runs %s", c, fig.Cols[c], net.Scheme())
		}
		for i, tp := range series {
			if got := float64(bins[i]) * 8 / bin.Seconds() / 1e9; got != tp.V {
				t.Errorf("%s: bin %v: long flow %v Gbps, Figure 9 %v Gbps", scheme, tp.T, got, tp.V)
			}
		}
		if got, want := short.FCT(), time.Duration(run.FCT[1].Nanoseconds()); !short.Done() || got != want {
			t.Errorf("%s: short flow FCT %v (done %v), Figure 9 %v", scheme, got, short.Done(), want)
		}
	}
}
