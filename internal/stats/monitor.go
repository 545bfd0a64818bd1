package stats

import (
	"slices"

	"hpcc/internal/fabric"
	"hpcc/internal/sim"
)

// QueueMonitor samples egress queue depths of a set of ports at a fixed
// interval, building the queue-length distributions of Figures 9f/10b/
// 10d and the time series of Figures 9a–d/13b.
type QueueMonitor struct {
	eng      *sim.Engine
	ports    []*fabric.Port
	interval sim.Time
	until    sim.Time
	tickFn   func() // m.tick bound once: re-arming with the method value would allocate a closure per tick

	// Exact mode keeps the multiset of per-port depths: a count per
	// distinct depth in bytes, so retention is O(distinct depths)
	// however long the run. seen lists each depth once, in no
	// particular order, so nothing ever ranges over the map.
	counts map[int64]int64
	seen   []int64

	// OnSample, if set, streams each (time, total bytes) observation as
	// it is taken — the observer-layer feed TraceQueues and the public
	// QueueObserver ride. Set it right after NewQueueMonitor; the first
	// tick fires one interval later.
	OnSample func(TimePoint)

	// Sketch mode (EnableSketch): per-port depth observations stream
	// into a quantile sketch instead of the exact counts, so
	// retention is O(buckets) whatever depths the run sees. OnSample
	// still fires every tick, so time-series observers keep working.
	sketch *Sketch // cumulative per-port depths; non-nil => sketch mode
	window *Sketch // depths since the last flush (fed when OnFlush is set)

	// OnFlush, when set, receives the current window every FlushEvery
	// ticks — the interval-flush primitive live-progress consumers
	// ride: each flush carries the window's depth summary plus the
	// cumulative one, then the window resets. Works in either retention
	// mode (the window itself is always a sketch); set it right after
	// NewQueueMonitor.
	OnFlush  func(QueueFlush)
	winTicks int
	winStart sim.Time
}

// FlushEvery is the queue window length in sampling ticks: one window
// per ms at the 10 µs sampling period of a load run.
const FlushEvery = 100

// TimePoint is one time-series observation.
type TimePoint struct {
	T sim.Time
	V float64
}

// NewQueueMonitor starts sampling immediately; it stops after until.
func NewQueueMonitor(eng *sim.Engine, ports []*fabric.Port, interval, until sim.Time) *QueueMonitor {
	m := &QueueMonitor{eng: eng, ports: ports, interval: interval, until: until}
	m.tickFn = m.tick
	eng.After(interval, m.tickFn)
	return m
}

// Stop ends sampling at the next tick.
func (m *QueueMonitor) Stop() { m.until = -1 }

// EnableSketch switches the monitor to sketch mode: no exact depth
// counts are kept, every per-port observation streams into quantile
// sketches instead. Call it right after NewQueueMonitor, before the
// first tick.
func (m *QueueMonitor) EnableSketch() { m.sketch = NewSketch(0) }

// QueueFlush is one closed interval window of queue-depth observations,
// delivered to OnFlush every FlushEvery ticks in either mode.
type QueueFlush struct {
	Start sim.Time // window open (previous flush, or monitoring start)
	At    sim.Time // window close: the tick that triggered the flush
	Ticks int      // sampling instants inside the window
	// Window summarizes per-port depths inside this window alone; Run
	// is the cumulative distribution since monitoring began.
	Window Summary
	Run    Summary
}

func (m *QueueMonitor) tick() {
	now := m.eng.Now()
	if now > m.until {
		return
	}
	if m.OnFlush != nil && m.window == nil {
		m.window = NewSketch(0)
	}
	total := 0.0
	for _, p := range m.ports {
		d := p.QueueBytes()
		q := float64(d)
		total += q
		if m.sketch != nil {
			m.sketch.Add(q)
		} else {
			m.count(d)
		}
		if m.OnFlush != nil {
			m.window.Add(q)
		}
	}
	if m.OnFlush != nil {
		m.winTicks++
		if m.winTicks >= FlushEvery {
			f := QueueFlush{Start: m.winStart, At: now, Ticks: m.winTicks,
				Window: m.window.Summary(), Run: m.Summary()}
			m.winStart = now
			m.winTicks = 0
			m.window.Reset()
			m.OnFlush(f)
		}
	}
	if m.OnSample != nil {
		m.OnSample(TimePoint{now, total})
	}
	m.eng.After(m.interval, m.tickFn)
}

// count adds one exact-mode observation of depth d bytes.
func (m *QueueMonitor) count(d int64) {
	if m.counts == nil {
		m.counts = make(map[int64]int64)
	}
	m.counts[d]++
	if len(m.counts) > len(m.seen) {
		m.seen = append(m.seen, d)
	}
}

// Depths is the exact-mode multiset of per-port depths: every distinct
// depth with its count, in increasing depth. It is empty in sketch
// mode.
func (m *QueueMonitor) Depths() []DepthCount {
	slices.Sort(m.seen)
	out := make([]DepthCount, len(m.seen))
	for i, d := range m.seen {
		out[i] = DepthCount{Bytes: d, Count: m.counts[d]}
	}
	return out
}

// Summary summarizes the per-port depth observations, mode-agnostic:
// exact from the depth counts, α-accurate from the sketch.
func (m *QueueMonitor) Summary() Summary {
	if m.sketch != nil {
		return m.sketch.Summary()
	}
	return summarizeDepths(m.Depths())
}

// depthCountBytes is the logical size of one exact-mode row: a depth
// and its count.
const depthCountBytes = 16

// RetainedBytes is the monitor's logical stat footprint: one depth and
// its count per distinct depth in exact mode, occupied sketch buckets
// in sketch mode. The flush window belongs to the OnFlush consumer and
// is left out in both, so attaching one never changes the figure.
func (m *QueueMonitor) RetainedBytes() int64 {
	if m.sketch != nil {
		return m.sketch.RetainedBytes()
	}
	return int64(len(m.seen)) * depthCountBytes
}

// PFCEvent is one pause/resume transition observed at a switch egress
// port.
type PFCEvent struct {
	At     sim.Time
	Switch int // index into the watched switch list
	Port   int // port index at that switch
	Paused bool
}

// WatchPFC streams every PFC pause/resume transition on the switches'
// ports to fn. It replaces any previously installed pause hooks on
// those ports.
func WatchPFC(eng *sim.Engine, switches []*fabric.Switch, fn func(PFCEvent)) {
	for si, sw := range switches {
		for pi, p := range sw.Ports() {
			si, pi, p := si, pi, p
			p.SetPauseHook(func(paused bool) {
				fn(PFCEvent{At: eng.Now(), Switch: si, Port: pi, Paused: paused})
			})
		}
	}
}

// Throughput tracks per-flow goodput in fixed time bins, producing the
// rate curves of Figures 9a/9c/9g/13a.
type Throughput struct {
	bin   sim.Time
	bytes map[int]map[int64]int64 // flow tag -> bin index -> bytes
}

// NewThroughput creates a tracker with the given bin width.
func NewThroughput(bin sim.Time) *Throughput {
	return &Throughput{bin: bin, bytes: make(map[int]map[int64]int64)}
}

// Record adds n acknowledged bytes for flow tag at time t.
func (tp *Throughput) Record(tag int, t sim.Time, n int64) {
	m := tp.bytes[tag]
	if m == nil {
		m = make(map[int64]int64)
		tp.bytes[tag] = m
	}
	m[int64(t/tp.bin)] += n
}

// Series returns flow tag's goodput in Gbps per bin over [0, until].
func (tp *Throughput) Series(tag int, until sim.Time) []TimePoint {
	m := tp.bytes[tag]
	nBins := int64(until / tp.bin)
	out := make([]TimePoint, 0, nBins)
	for b := int64(0); b < nBins; b++ {
		gbps := float64(m[b]) * 8 / tp.bin.Seconds() / 1e9
		out = append(out, TimePoint{sim.Time(b) * tp.bin, gbps})
	}
	return out
}

// Rate returns flow tag's average goodput in Gbps over [from, to).
func (tp *Throughput) Rate(tag int, from, to sim.Time) float64 {
	m := tp.bytes[tag]
	var total int64
	for b := int64(from / tp.bin); b < int64(to/tp.bin); b++ {
		total += m[b]
	}
	dur := (to - from).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(total) * 8 / dur / 1e9
}

// PFCPauseFraction sums the ports' data-class pause time and normalizes
// by (elapsed × ports): the "fraction of pause time" metric of Figure
// 11b/11d over switch ports, and fig1's per-tier shares.
func PFCPauseFraction(ports []*fabric.Port, elapsed sim.Time) float64 {
	var total sim.Time
	for _, p := range ports {
		total += p.PausedFor()
	}
	if len(ports) == 0 || elapsed <= 0 {
		return 0
	}
	return float64(total) / (float64(elapsed) * float64(len(ports)))
}
