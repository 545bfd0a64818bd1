package experiment

import (
	"math"

	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
)

// longFlowSize is "effectively infinite" for long-running flows.
const longFlowSize = int64(1) << 40

// microNet is the shared fixture of the micro-benchmarks (§5.4 and
// Figure 9): a star of hosts around one switch, with throughput and
// queue instrumentation.
type microNet struct {
	eng     *sim.Engine
	nw      *topology.Network
	rate    sim.Rate
	baseRTT sim.Time
	tput    *stats.Throughput
	scheme  Scheme
}

// buildStarMicro wires n hosts at rate around one switch with PFC on
// (the testbed is lossless) and the scheme's INT/ECN needs. The flows
// are the figure's own; the scenario carries no traffic.
func buildStarMicro(scheme Scheme, n int, rate sim.Rate, seed int64, tputBin sim.Time) *microNet {
	eng := sim.NewEngine()
	topo := topology.StarSpec{N: n, HostRate: rate, Delay: sim.Microsecond}
	return &microNet{
		eng:     eng,
		nw:      StartManual(eng, LoadScenario{Scheme: scheme, Topo: topo, PFC: true, Seed: seed}).Network,
		rate:    rate,
		baseRTT: topo.BaseRTT(),
		tput:    stats.NewThroughput(tputBin),
		scheme:  scheme,
	}
}

// flowAt schedules a flow of size bytes from src to dst at time at,
// tagging its goodput into the throughput tracker.
func (m *microNet) flowAt(at sim.Time, src, dst int, size int64, tag int, onDone func(*host.Flow)) {
	start := func() {
		f := m.nw.StartFlow(src, dst, size, onDone)
		f.OnProgress = func(fl *host.Flow, n int64) {
			m.tput.Record(tag, m.eng.Now(), n)
		}
	}
	if at == 0 {
		start()
	} else {
		m.eng.After(at, start)
	}
}

// portTo returns the switch egress port facing host hostIdx — where
// the interesting queue forms in a many-to-one pattern.
func (m *microNet) portTo(hostIdx int) *fabric.Port {
	want := m.nw.Hosts[hostIdx].ID()
	for _, p := range m.nw.SwitchPorts() {
		if p.Peer().ID() == want {
			return p
		}
	}
	panic("experiment: no switch port to host")
}

// goodputCap returns the achievable goodput in Gbps after header (and
// INT) overhead — the ceiling of the throughput plots.
func (m *microNet) goodputCap() float64 {
	overhead := packet.HeaderBytes
	if m.scheme.INT {
		overhead += packet.INTOverhead
	}
	frac := float64(packet.DefaultMTU) / float64(packet.DefaultMTU+overhead)
	return float64(m.rate) / 1e9 * frac
}

// SeriesPair couples a throughput series with a queue series.
type SeriesPair struct {
	Scheme     string
	Throughput []stats.TimePoint // Gbps
	Queue      []stats.TimePoint // bytes (total across monitored ports)
}

func init() {
	Register(Scenario{
		Name:  "fig6",
		Order: 40,
		Title: "txRate vs rxRate congestion signal (2-to-1, 100G)",
		Run:   func(p Params) []*Table { return []*Table{Fig06(0, p.Seed).Table()} },
	})
}

// Fig06Result compares txRate- vs rxRate-based HPCC (Figure 6).
type Fig06Result struct {
	Variants []SeriesPair
	// PeakKB is the initial line-rate-start overshoot (identical for
	// both). RebuildKB is the largest queue after the first full drain:
	// the oscillation Figure 6 shows for rxRate, near zero for txRate.
	PeakKB, RebuildKB []float64
}

// Fig06 runs the 2-to-1 congestion scenario of §3.4 for HPCC and
// HPCC-rxRate and reports the bottleneck queue over time.
func Fig06(dur sim.Time, seed int64) *Fig06Result {
	if dur == 0 {
		dur = 400 * sim.Microsecond
	}
	res := &Fig06Result{}
	for _, scheme := range []Scheme{ByNameMust("hpcc"), ByNameMust("hpcc-rxrate")} {
		m := buildStarMicro(scheme, 3, 100*sim.Gbps, seed, 10*sim.Microsecond)
		m.flowAt(0, 0, 2, longFlowSize, 0, nil)
		m.flowAt(0, 1, 2, longFlowSize, 1, nil)
		mon := stats.NewQueueMonitor(m.eng, []*fabric.Port{m.portTo(2)}, fabric.PrioData, sim.Microsecond, dur)
		m.eng.RunUntil(dur)
		mon.Stop()

		peak, rebuild := 0.0, 0.0
		drained := false
		for _, tp := range mon.Series {
			if !drained {
				if tp.V > peak {
					peak = tp.V
				}
				if peak > 0 && tp.V == 0 {
					drained = true
				}
			} else if tp.V > rebuild {
				rebuild = tp.V
			}
		}
		res.Variants = append(res.Variants, SeriesPair{Scheme: scheme.Name, Queue: mon.Series})
		res.PeakKB = append(res.PeakKB, peak/1024)
		res.RebuildKB = append(res.RebuildKB, rebuild/1024)
	}
	return res
}

// Table renders Figure 6 as queue-over-time columns (dense during the
// transient, sparse after).
func (r *Fig06Result) Table() *Table {
	t := &Table{
		Title: "Figure 6: txRate vs rxRate congestion signal (2-to-1, 100G) — queue length",
		Cols:  []string{"time(us)"},
	}
	for _, v := range r.Variants {
		t.Cols = append(t.Cols, v.Scheme+"(KB)")
	}
	n := len(r.Variants[0].Queue)
	for i := 0; i < n; {
		row := []string{f1(r.Variants[0].Queue[i].T.Microseconds())}
		for _, v := range r.Variants {
			row = append(row, f1(v.Queue[i].V/1024))
		}
		t.AddRow(row...)
		if i < 60 {
			i += 3
		} else {
			i += 30
		}
	}
	for i, v := range r.Variants {
		t.AddNote("%s: line-rate-start peak %.1f KB; queue rebuild after first drain %.1f KB",
			v.Scheme, r.PeakKB[i], r.RebuildKB[i])
	}
	return t
}

// ByNameMust resolves a scheme or panics (experiment-internal tables).
func ByNameMust(name string) Scheme {
	s, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

func stdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(len(xs))
	var sq float64
	for _, v := range xs {
		d := v - mean
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(xs)))
}
