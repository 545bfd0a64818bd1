package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// runLoadT is RunLoad with test-fatal error handling.
func runLoadT(t *testing.T, s LoadScenario) *LoadResult {
	t.Helper()
	r, err := RunLoad(s)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	return r
}

// RunLoad refuses a scenario Validate rejects (the table of rejected
// values is hpcc's TestExperimentValidation).
func TestRunLoadValidates(t *testing.T) {
	s := dumbbellLoad()
	s.Drain = -sim.Millisecond
	if _, err := RunLoad(s); err == nil {
		t.Fatal("RunLoad accepted a negative drain")
	}
}

// Every spec the topology and workload packages reject is an error from
// RunLoad before anything runs: never a panic, a run that never ends, or
// a nil error over a run that starts no flows, drops on missing routes
// or outgrows its INT stack. Each case runs under a deadline so a
// spec that hangs fails the test instead of the package.
func TestRunLoadRejectsHostileSpecs(t *testing.T) {
	poisson := workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.3}
	star4 := topology.StarSpec{N: 4}
	for _, c := range []struct {
		name    string
		topo    Topo
		traffic workload.Generator
		window  int // the completed-flow window
	}{
		{"FatTree only Cores", topology.FatTreeSpec{Cores: 2}, poisson, 0},
		{"FatTree no Aggs", topology.FatTreeSpec{Cores: 2, ToRs: 2, HostsPerToR: 9}, poisson, 0},
		{"FatTree of 1 host", topology.FatTreeSpec{Cores: 1, Aggs: 1, ToRs: 1, HostsPerToR: 1}, poisson, 0},
		{"Star of 1", topology.StarSpec{N: 1}, poisson, 0},
		{"Star negative delay", topology.StarSpec{N: 4, Delay: -sim.Microsecond}, poisson, 0},
		{"ParkingLot past the INT stack", topology.ParkingLotSpec{Segments: 5}, poisson, 0},
		{"Incast without a load fraction", star4, workload.IncastSpec{FanIn: 2, Size: 1000}, 0},
		{"Incast fan-in 0", star4, workload.IncastSpec{FanIn: 0, Size: 1000, LoadFrac: 0.02}, 0},
		{"FlowList past the hosts", star4, workload.FlowList{{Src: 0, Dst: 9, Size: 1000}}, 0},
		{"RPC without a size", star4, workload.RPCSpec{Load: 0.1}, 0},
		{"Poisson over zero-byte flows", star4, workload.PoissonSpec{CDF: workload.MustCDF("zero", []workload.Point{{Bytes: 0, Prob: 0}, {Bytes: 0, Prob: 1}}), Load: 0.3}, 0},
		{"Poisson negative MaxFlows", star4, workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.3, MaxFlows: -1}, 0},
		{"RPC negative MaxRequests", star4, workload.RPCSpec{Size: 1000, Load: 0.1, MaxRequests: -1}, 0},
		{"no topology", nil, poisson, 0},
		{"nil generator", star4, nil, 0},
		{"FlowList hairpin", star4, workload.FlowList{{Src: 2, Dst: 2, Size: 1000}}, 0},
		{"negative completed-flow window", star4, poisson, -3},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := LoadScenario{
				Scheme:          ByNameMust("hpcc"),
				Topo:            c.topo,
				Traffic:         []workload.Generator{c.traffic},
				Until:           500 * sim.Microsecond,
				Drain:           sim.Millisecond,
				PFC:             true,
				CompletedWindow: c.window,
			}
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("panic: %v", r)
					}
				}()
				if res, err := RunLoad(s); err != nil {
					done <- nil
				} else {
					done <- fmt.Errorf("nil error; %d flows started, %d censored, %d drops", res.Started, res.Censored, res.Drops)
				}
			}()
			select {
			case bad := <-done:
				if bad != nil {
					t.Fatalf("RunLoad: %v, want an error", bad)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("RunLoad still running after 20 s, want an error")
			}
		})
	}
}

// An incast whose period rounds to 0 ps passes Validate and fires
// every event at one instant; the per-generator arrival cap ends it
// after MaxFlows events of FanIn flows each, so RunLoad returns instead
// of never.
func TestIncastStopsAtMaxFlows(t *testing.T) {
	s := LoadScenario{
		Scheme:   ByNameMust("hpcc"),
		Topo:     topology.StarSpec{N: 4},
		Traffic:  []workload.Generator{workload.IncastSpec{FanIn: 2, Size: 1, LoadFrac: 1e9}},
		MaxFlows: 51,
		Until:    500 * sim.Microsecond,
		Drain:    sim.Millisecond,
		PFC:      true,
	}
	done := make(chan *LoadResult, 1)
	go func() {
		res, err := RunLoad(s)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res != nil && (res.Started != 2*s.MaxFlows || res.Censored != 0) {
			t.Fatalf("%d incast flows started, %d censored, want %d and 0", res.Started, res.Censored, 2*s.MaxFlows)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("RunLoad still running after 20 s")
	}
}

// Bounded completed-flow retention must not change any aggregate: the
// capped run renders exactly as the uncapped one.
func TestCompletedWindowAccounting(t *testing.T) {
	base := runLoadT(t, dumbbellLoad())
	s := dumbbellLoad()
	s.CompletedWindow = 4
	if got, want := renderResult(runLoadT(t, s)), renderResult(base); got != want {
		t.Fatalf("completed window 4:\n%s\nwant\n%s", got, want)
	}
}

// A scenario without PFC runs paper footnote 6's lossy egress with
// α = 1: a data frame is dropped exactly when its egress queue plus the
// frame would exceed the switch's free buffer. Frames of random sizes
// from one host of a star fan out, skewed, to the other three, with
// random pauses between bursts; each admission decision is checked
// against the switch state just before it.
func TestLossyEgressDropsBeyondFreeBuffer(t *testing.T) {
	const buffer = 100_000
	eng := sim.NewEngine()
	m := StartManual(eng, LoadScenario{Scheme: ByNameMust("dcqcn"), Topo: StarTopo(4), BufferBytes: buffer})
	nw := m.Network
	sw := nw.Switches[0]
	var in *fabric.Port
	for _, p := range sw.Ports() {
		if p.Peer().ID() == nw.Hosts[0].ID() {
			in = p
		}
	}
	rng := rand.New(rand.NewSource(1))
	seq := map[int]int64{}
	var dropped, admitted int
	for burst := 0; burst < 400; burst++ {
		for n := rng.Intn(60); n > 0; n-- {
			dst := 1 + rng.Intn(3)*rng.Intn(2) // host 1 gets two thirds
			payload := int32(1 + rng.Intn(packet.DefaultMTU))
			p := &packet.Packet{
				Type: packet.Data, FlowID: int32(dst),
				Src: int32(nw.Hosts[0].ID()), Dst: int32(nw.Hosts[dst].ID()),
				Size: payload + packet.HeaderBytes, PayloadLen: payload, Seq: seq[dst],
			}
			seq[dst] += int64(payload)
			eg := sw.Ports()[sw.Route(nw.Hosts[dst].ID())[0]]
			q, free := eg.QueueBytes(), buffer-sw.BufferUsed()
			want := q+int64(p.Size) > free
			before := sw.Drops()
			sw.HandleArrival(p, in)
			if got := sw.Drops() > before; got != want {
				t.Fatalf("frame %d B to an egress queue of %d B with %d B free: dropped %v, want %v",
					p.Size, q, free, got, want)
			}
			if want {
				dropped++
			} else {
				admitted++
			}
		}
		eng.RunUntil(eng.Now() + sim.Time(rng.Intn(1000))*sim.Nanosecond)
	}
	if dropped < 100 || admitted < 100 {
		t.Fatalf("%d frames dropped and %d admitted; the fixture must exercise both", dropped, admitted)
	}
}

// decodeSchedule reads a lossy 4-host star scenario from fuzz bytes: the
// first byte picks go-back-N (even) or IRN (odd), then every 5 bytes
// are one flow (at most 16): source and destination in [-1, 4] (so
// either may be out of range or both equal), a size from 1 B to 256 KB,
// and a start in 20 µs steps up to 5.1 ms against a 2 ms arrival
// window. It also returns how many flows start inside the window.
func decodeSchedule(data []byte) (s LoadScenario, inWindow int) {
	s = LoadScenario{
		Scheme:      HPCC(hpcccc.Config{}),
		Topo:        topology.StarSpec{N: 4},
		Until:       2 * sim.Millisecond,
		Drain:       5 * sim.Millisecond,
		BufferBytes: 64 << 10,
		Seed:        1,
	}
	if len(data) > 0 {
		s.FlowCtl = host.FlowControl(data[0] % 2)
		data = data[1:]
	}
	var flows workload.FlowList
	for ; len(data) >= 5 && len(flows) < 16; data = data[5:] {
		f := workload.FlowSpec{
			Src:  int(data[0]%6) - 1,
			Dst:  int(data[1]%6) - 1,
			Size: 1 + int64(data[2])<<10 + int64(data[3])<<2,
			At:   sim.Time(data[4]) * 20 * sim.Microsecond,
		}
		if f.At <= s.Until {
			inWindow++
		}
		flows = append(flows, f)
	}
	s.Traffic = []workload.Generator{flows}
	return s, inWindow
}

// FuzzSchedule runs arbitrary FlowList traces (decodeSchedule) through
// RunLoad. It must return Validate's error, or a result in which every
// flow inside the arrival window started and finished by the end of the
// drain, under go-back-N and IRN alike: Censored == 0 and FCT.Count() ==
// Started == the flows in the window. Every input fits the 5 ms drain:
// 16 flows of at most 256 KB are 4 MB, 0.34 ms at 100 Gbps. It must
// never panic. Seeds live in testdata/fuzz/FuzzSchedule.
func FuzzSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, inWindow := decodeSchedule(data)
		want := s.Validate()
		res, err := RunLoad(s)
		switch {
		case want != nil:
			if res != nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("RunLoad = %v, %v; want Validate's error %q", res, err, want)
			}
		case err != nil:
			t.Fatalf("RunLoad: %v, but Validate accepted the scenario", err)
		case res.Censored != 0 || res.FCT.Count() != res.Started || res.Started != inWindow:
			t.Fatalf("%v: %d finished, %d censored, %d started; want all %d started and finished",
				s.FlowCtl, res.FCT.Count(), res.Censored, res.Started, inWindow)
		}
	})
}

// PFC's headroom rule on ScaledFatTree, 1 µs links. An ingress port
// needs 2 × rate × delay + 2 largest frames: 2 × 50 000 + 2 × 1 106 =
// 102 212 B at 400 Gbps and 27 212 B at 100 Gbps under HPCC's INT
// frames (102 128 and 27 128 B with DCQCN's 1 064 B frames). A core
// (4 fabric ports) needs 408 848 B, an aggregation switch (6) 613 272 B
// and a ToR (4 + 8 hosts) 626 544 B. RunLoad refuses a PFC buffer below
// a switch's sum, naming the first such switch in build order with both
// numbers: 256 KB fails at core 0, 512 KB at aggregation switch 2.
// Above every sum, a k-to-1 incast of 200 KB flows drops no frame and
// every flow finishes, at 768 KB, 1 MB and 2 MB for k = 7, 15 and 31;
// most of those runs pause.
func TestPFCHeadroom(t *testing.T) {
	paused := 0
	for i, scheme := range []string{"hpcc", "dcqcn"} {
		for _, c := range []struct {
			buf int64
			sw  int      // the switch refused, -1 for none
			sum [2]int64 // its headroom sum under hpcc and dcqcn
		}{
			{256 << 10, 0, [2]int64{408_848, 408_512}},
			{512 << 10, 2, [2]int64{613_272, 612_768}},
			{768 << 10, -1, [2]int64{}},
			{1 << 20, -1, [2]int64{}},
			{2 << 20, -1, [2]int64{}},
		} {
			for _, fanIn := range []int{7, 15, 31} {
				var flows workload.FlowList
				for src := 1; src <= fanIn; src++ {
					flows = append(flows, workload.FlowSpec{Src: src, Dst: 0, Size: 200_000})
				}
				res, err := RunLoad(LoadScenario{
					Scheme: ByNameMust(scheme), Topo: FatTreeTopo(topology.ScaledFatTree()),
					Traffic: []workload.Generator{flows}, Until: sim.Millisecond, Drain: 10 * sim.Millisecond,
					PFC: true, BufferBytes: c.buf, Seed: 1,
				})
				if c.sw >= 0 {
					want := fmt.Sprintf("fabric: PFC switch %d has a %d B buffer, below its headroom sum of %d B", c.sw, c.buf, c.sum[i])
					if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "necessary for a lossless fabric, not a guarantee") {
						t.Fatalf("%s, %d B buffer: error %v, want one starting %q", scheme, c.buf, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s, %d B buffer: %v", scheme, c.buf, err)
				}
				if res.Drops != 0 || res.Censored != 0 || res.FCT.Count() != fanIn {
					t.Fatalf("%s, %d B buffer, %d-to-1: %d drops, %d censored, %d of %d flows done; want 0, 0, all",
						scheme, c.buf, fanIn, res.Drops, res.Censored, res.FCT.Count(), fanIn)
				}
				if res.PauseFrac > 0 {
					paused++
				}
			}
		}
	}
	if paused < 9 {
		t.Fatalf("%d of 18 lossless runs paused; the fixture must exercise PFC", paused)
	}
}
