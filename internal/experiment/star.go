package experiment

import (
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
)

// longFlowSize is "effectively infinite" for long-running flows.
const longFlowSize = int64(1) << 40

// starFlow is one flow of a star cell: Size bytes from host Src to host
// Dst, started At and aborted at Stop (0: never).
type starFlow struct {
	At, Stop sim.Time
	Src, Dst int
	Size     int64
}

// starCell is one micro-benchmark run (§5.4 and Figure 9): Flows on a
// star of Hosts hosts at Rate around one switch, for Dur. Each flow's
// goodput is binned every Bin; the switch port toward host Sink (-1:
// none) is sampled every µs from QueueFrom on — where the queue of a
// many-to-one pattern forms.
type starCell struct {
	Scheme    Scheme
	Hosts     int
	Rate      sim.Rate
	Flows     []starFlow
	Dur, Bin  sim.Time
	Sink      int
	QueueFrom sim.Time
	Seed      int64
}

// longFlows is n long flows, one from each of hosts 0..n-1, into dst.
func longFlows(n, dst int) []starFlow {
	out := make([]starFlow, n)
	for i := range out {
		out[i] = starFlow{Src: i, Dst: dst, Size: longFlowSize}
	}
	return out
}

// incast16 is the 16-to-1 incast of long flows at 100 Gbps that Figures
// 13 and 14 and the η × maxStage ablation share.
func incast16(scheme Scheme, dur, bin, queueFrom sim.Time, seed int64) starCell {
	return starCell{Scheme: scheme, Hosts: 17, Rate: 100 * sim.Gbps, Flows: longFlows(16, 16),
		Dur: dur, Bin: bin, Sink: 16, QueueFrom: queueFrom, Seed: seed}
}

// start wires the cell's star with PFC on (the testbed is lossless) and
// the scheme's INT/ECN needs. The flows are the cell's own; the
// scenario carries no traffic.
func (c starCell) start(eng *sim.Engine) *ManualNet {
	topo := topology.StarSpec{N: c.Hosts, HostRate: c.Rate}
	return StartManual(eng, LoadScenario{Scheme: c.Scheme, Topo: topo, PFC: true, Seed: c.Seed})
}

// runStar runs one star cell. Flows start in list order — at once when
// At is 0, else through the engine — each followed by its stop, and the
// queue monitor comes last.
func runStar(c starCell) *StarRun {
	eng := sim.NewEngine()
	m := c.start(eng)
	overhead := packet.HeaderBytes
	if c.Scheme.INT {
		overhead += packet.INTOverhead
	}
	r := &StarRun{
		Dur:      c.Dur,
		Bin:      c.Bin,
		Acked:    stats.NewThroughput(c.Bin),
		Finished: make([]sim.Time, len(c.Flows)),
		FCT:      make([]sim.Time, len(c.Flows)),
		BaseRTT:  m.Network.BaseRTT,
		Cap:      float64(c.Rate) / 1e9 * (float64(packet.DefaultMTU) / float64(packet.DefaultMTU+overhead)),
	}
	flows := make([]*host.Flow, len(c.Flows))
	for i, fl := range c.Flows {
		start := func() {
			flows[i] = m.Network.StartFlow(fl.Src, fl.Dst, fl.Size, nil)
			flows[i].OnProgress = func(_ *host.Flow, n int64) { r.Acked.Record(i, eng.Now(), n) }
		}
		if fl.At == 0 {
			start()
		} else {
			eng.After(fl.At, start)
		}
		if fl.Stop > 0 {
			eng.After(fl.Stop, func() {
				if flows[i] != nil {
					flows[i].Abort()
				}
			})
		}
	}
	if c.Sink >= 0 {
		// StarSpec links host i to switch port i.
		port := m.Network.Switches[0].Ports()[c.Sink]
		watch := func() {
			// One sample a µs after QueueFrom, up to Dur.
			r.Queue = make([]stats.TimePoint, 0, (c.Dur-c.QueueFrom)/sim.Microsecond)
			mon := stats.NewQueueMonitor(eng, []*fabric.Port{port}, sim.Microsecond, c.Dur)
			mon.OnSample = func(tp stats.TimePoint) { r.Queue = append(r.Queue, tp) }
		}
		if c.QueueFrom == 0 {
			watch()
		} else {
			eng.After(c.QueueFrom, watch)
		}
	}
	eng.RunUntil(c.Dur)

	for i, f := range flows {
		// An aborted flow is Done too; only a fully acknowledged one
		// finished.
		if f != nil && f.Acked() >= f.Size() {
			r.Finished[i], r.FCT[i] = f.Finished(), f.FCT()
		}
	}
	return r
}

// StarRun is what one star cell measured, with the reductions the
// micro-benchmark figures render from it. Flow f is the cell's f-th.
type StarRun struct {
	Dur, Bin sim.Time
	// Acked holds each flow's acknowledged bytes, tagged by flow and
	// binned by Bin.
	Acked *stats.Throughput
	// Queue is the sink port's data queue in bytes, sampled every µs
	// from the cell's QueueFrom on (empty without a sink).
	Queue []stats.TimePoint
	// Finished and FCT are each flow's completion time and flow
	// completion time, 0 for a flow that did not finish within Dur.
	Finished, FCT []sim.Time
	BaseRTT       sim.Time
	// Cap is the goodput ceiling in Gbps: the link rate after header
	// (and INT) overhead.
	Cap float64
}

// Goodput is flow f's goodput in Gbps, one point per bin over [0, Dur).
func (r *StarRun) Goodput(f int) []stats.TimePoint { return r.Acked.Series(f, r.Dur) }

// TotalGoodput is the flows' summed goodput in Gbps, one point per bin.
func (r *StarRun) TotalGoodput() []stats.TimePoint {
	total := make([]stats.TimePoint, int(r.Dur/r.Bin))
	for b := range total {
		total[b].T = sim.Time(b) * r.Bin
	}
	for f := range r.FCT {
		for b, tp := range r.Goodput(f) {
			total[b].V += tp.V
		}
	}
	return total
}

// Rates is every flow's mean goodput in Gbps over [from, to).
func (r *StarRun) Rates(from, to sim.Time) []float64 {
	out := make([]float64, len(r.FCT))
	for f := range out {
		out[f] = r.Acked.Rate(f, from, to)
	}
	return out
}

// Latencies is the FCT in µs of every flow from index first on that
// finished.
func (r *StarRun) Latencies(first int) []float64 {
	var out []float64
	for _, fct := range r.FCT[first:] {
		if fct > 0 {
			out = append(out, fct.Microseconds())
		}
	}
	return out
}

// MeanGoodput is the flows' summed goodput in Gbps, averaged over the
// bins.
func (r *StarRun) MeanGoodput() float64 {
	total := r.TotalGoodput()
	s := 0.0
	for _, tp := range total {
		s += tp.V
	}
	return s / float64(len(total))
}

// Peak is the largest queue sample in bytes.
func (r *StarRun) Peak() float64 { return peak(r.Queue) }

// Overshoot splits the queue at its first drain to empty once built up:
// first is the largest queue before it (the line-rate-start overshoot),
// rebuild the largest after it — the oscillation Figure 6 shows for
// rxRate — or 0 if it never drained.
func (r *StarRun) Overshoot() (first, rebuild float64) {
	built := false
	for i, tp := range r.Queue {
		if tp.V > 0 {
			built = true
		} else if built {
			return peak(r.Queue[:i]), peak(r.Queue[i:])
		}
	}
	return r.Peak(), 0
}

// DrainTime is how long after from the queue last stood above a tenth
// of its peak: -1 if it still does at the last sample, or never built
// up.
func (r *StarRun) DrainTime(from sim.Time) sim.Time {
	p := r.Peak()
	for i := len(r.Queue) - 1; i >= 0; i-- {
		if r.Queue[i].V > p/10 {
			if i == len(r.Queue)-1 {
				return -1
			}
			return r.Queue[i].T - from
		}
	}
	return -1
}

// MeanAfter is the mean queue in bytes over the samples taken after t
// (0 for none).
func (r *StarRun) MeanAfter(t sim.Time) float64 {
	sum, n := 0.0, 0
	for _, tp := range r.Queue {
		if tp.T > t {
			sum += tp.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Quantile is the p-th percentile queue sample in bytes (0 for none).
func (r *StarRun) Quantile(p float64) float64 {
	if len(r.Queue) == 0 {
		return 0
	}
	xs := make([]float64, len(r.Queue))
	for i, tp := range r.Queue {
		xs[i] = tp.V
	}
	return stats.Percentile(xs, p)
}

// queueTable renders a one-row star grid as queue-over-time columns in
// KB, one row per sample index that next steps through.
func queueTable(title string, g *Grid[*StarRun], next func(i int) int) *Table {
	t := &Table{Title: title, Cols: []string{"time(us)"}}
	for _, s := range g.Cols {
		t.Cols = append(t.Cols, s+"(KB)")
	}
	runs := g.Results[0]
	for i := 0; i < len(runs[0].Queue); i = next(i) {
		row := []string{f1(runs[0].Queue[i].T.Microseconds())}
		for _, r := range runs {
			row = append(row, f1(r.Queue[i].V/1024))
		}
		t.AddRow(row...)
	}
	return t
}

func peak(series []stats.TimePoint) float64 {
	p := 0.0
	for _, tp := range series {
		p = max(p, tp.V)
	}
	return p
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
