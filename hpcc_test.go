package hpcc_test

import (
	"math"
	"testing"
	"time"

	"hpcc"
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
		if p.Bytes > peak {
			peak = p.Bytes
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
