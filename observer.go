package hpcc

import (
	"time"

	"hpcc/internal/experiment"
	"hpcc/internal/stats"
)

// Observer streams simulation events to user callbacks while an
// Experiment runs: per-flow completion records (FlowObserver),
// periodic queue samples (QueueObserver), PFC pause transitions
// (PFCObserver), and interval statistics flushes (StatsObserver).
// Attach any number to Experiment.Observers; callbacks fire in
// virtual-time order as the simulation executes.
//
// The interface is sealed; the four concrete observers cover the
// streams the engine exposes.
type Observer interface {
	attach(sc *experiment.LoadScenario)
}

// FlowRecord is one completed transfer as seen by a FlowObserver. For
// RDMA READs (Read true), Src is the responder (the data source) and
// Dst the requester, and FCT spans request issue to last response
// byte.
type FlowRecord struct {
	Src, Dst  int
	Read      bool
	SizeBytes int64
	Start     time.Duration
	FCT       time.Duration
	// Slowdown is FCT over the flow's ideal FCT on an empty network.
	Slowdown float64
}

// FlowObserver streams every completed flow.
type FlowObserver struct {
	OnComplete func(FlowRecord)
}

func (o FlowObserver) attach(sc *experiment.LoadScenario) {
	if o.OnComplete == nil {
		return
	}
	fn, prev := o.OnComplete, sc.Obs.OnFlow
	sc.Obs.OnFlow = func(ev experiment.FlowEvent) {
		if prev != nil {
			prev(ev)
		}
		fn(FlowRecord{
			Src:       ev.Src,
			Dst:       ev.Dst,
			Read:      ev.Read,
			SizeBytes: ev.Rec.Size,
			Start:     fromSim(ev.Started),
			FCT:       fromSim(ev.Rec.FCT),
			Slowdown:  ev.Rec.Slowdown(),
		})
	}
}

// QueueSample is one periodic observation of the total switch-queue
// backlog summed over a set of egress ports: the host-facing ones for
// QueueObserver, every switch port for Network.TraceQueues.
type QueueSample struct {
	At         time.Duration
	TotalBytes int64
}

// QueueObserver streams every queue backlog sample, one per tick of
// the Experiment's queue sampling period. A consumer that wants fewer
// skips samples in its callback; StatsObserver streams windowed
// summaries instead.
type QueueObserver struct {
	OnSample func(QueueSample)
}

func (o QueueObserver) attach(sc *experiment.LoadScenario) {
	if o.OnSample == nil {
		return
	}
	fn, prev := o.OnSample, sc.Obs.OnQueue
	sc.Obs.OnQueue = func(tp stats.TimePoint) {
		if prev != nil {
			prev(tp)
		}
		fn(QueueSample{At: fromSim(tp.T), TotalBytes: int64(tp.V)})
	}
}

// PFCEvent is one priority-flow-control pause or resume applied to a
// switch egress port.
type PFCEvent struct {
	At     time.Duration
	Switch int // switch index in build order
	Port   int // egress port index at that switch
	Paused bool
}

// PFCObserver streams every PFC pause/resume transition at the
// switches.
type PFCObserver struct {
	OnEvent func(PFCEvent)
}

func (o PFCObserver) attach(sc *experiment.LoadScenario) {
	if o.OnEvent == nil {
		return
	}
	fn, prev := o.OnEvent, sc.Obs.OnPFC
	sc.Obs.OnPFC = func(ev stats.PFCEvent) {
		if prev != nil {
			prev(ev)
		}
		fn(PFCEvent{At: fromSim(ev.At), Switch: ev.Switch, Port: ev.Port, Paused: ev.Paused})
	}
}

// StatsFlush is one closed interval window of a live run's statistics,
// as streamed by a StatsObserver: queue-depth percentiles over the
// window alone, plus cumulative flow statistics since the run began.
// Percentile fields come from streaming sketches (within 1% relative
// accuracy), so a flush costs O(sketch buckets) however many flows or
// samples the run has absorbed.
type StatsFlush struct {
	// Start/End bound the window in virtual time.
	Start, End time.Duration
	// QueueP50KB/P99KB/MaxKB are per-port queue-depth percentiles over
	// this window's sampling ticks only.
	QueueP50KB, QueueP99KB, QueueMaxKB float64
	// RunQueueP99KB is the cumulative p99 since monitoring began.
	RunQueueP99KB float64
	// Flows counts completions so far; SlowdownP50/P99 summarize their
	// FCT slowdowns so far.
	Flows                    int
	SlowdownP50, SlowdownP99 float64
}

// StatsObserver streams interval statistics flushes from a live run —
// the progress feed for dashboards and long campaigns: every 100
// queue-sampling ticks (1 ms at the 10 µs sampling period) it emits
// one StatsFlush combining the closed queue window with cumulative
// flow statistics. The observer keeps its own slowdown sketch fed from
// the flow stream, so it works (and costs O(sketch buckets)) in both
// exact and sketch-stats runs.
type StatsObserver struct {
	OnFlush func(StatsFlush)
}

func (o StatsObserver) attach(sc *experiment.LoadScenario) {
	if o.OnFlush == nil {
		return
	}
	slowdown := stats.NewSketch(0)
	prevFlow := sc.Obs.OnFlow
	sc.Obs.OnFlow = func(ev experiment.FlowEvent) {
		if prevFlow != nil {
			prevFlow(ev)
		}
		slowdown.Add(ev.Rec.Slowdown())
	}
	fn, prevFlush := o.OnFlush, sc.Obs.OnQueueFlush
	sc.Obs.OnQueueFlush = func(f stats.QueueFlush) {
		if prevFlush != nil {
			prevFlush(f)
		}
		out := StatsFlush{
			Start:         fromSim(f.Start),
			End:           fromSim(f.At),
			QueueP50KB:    f.Window.P50 / 1024,
			QueueP99KB:    f.Window.P99 / 1024,
			QueueMaxKB:    f.Window.Max / 1024,
			RunQueueP99KB: f.Run.P99 / 1024,
			Flows:         int(slowdown.Count()),
		}
		if out.Flows > 0 {
			out.SlowdownP50 = slowdown.Quantile(50)
			out.SlowdownP99 = slowdown.Quantile(99)
		}
		fn(out)
	}
}
