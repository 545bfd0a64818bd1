package dcqcn

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hpcc/internal/cc"
	"hpcc/internal/sim"
)

// timerHarness drives an Algorithm's self-scheduled timers on a tiny
// standalone event loop, so unit tests can advance virtual time.
type timerHarness struct {
	now sim.Time
	q   timerHeap
	seq int
}

type timerItem struct {
	at  sim.Time
	seq int
	fn  func()
}

type timerHeap []timerItem

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(timerItem)) }
func (h *timerHeap) Pop() (out any)    { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
func (th *timerHarness) Now() sim.Time { return th.now }

func (th *timerHarness) Schedule(d sim.Time, fn func()) {
	heap.Push(&th.q, timerItem{th.now + d, th.seq, fn})
	th.seq++
}

func (th *timerHarness) AdvanceTo(t sim.Time) {
	for len(th.q) > 0 && th.q[0].at <= t {
		it := heap.Pop(&th.q).(timerItem)
		th.now = it.at
		it.fn()
	}
	th.now = t
}

func (th *timerHarness) env(line sim.Rate, rtt sim.Time) cc.Env {
	return cc.Env{
		Now:      th.Now,
		Schedule: th.Schedule,
		LineRate: line,
		BaseRTT:  rtt,
		MTU:      1000,
	}
}

const line = 25 * sim.Gbps

func newDCQCN(th *timerHarness, cfg Config) *DCQCN {
	d := New(cfg)().(*DCQCN)
	d.Init(th.env(line, 10*sim.Microsecond))
	return d
}

func TestInitAtLineRate(t *testing.T) {
	th := &timerHarness{}
	d := newDCQCN(th, Config{})
	if d.RateBps() != float64(line) {
		t.Fatalf("initial rate = %v, want line", d.RateBps())
	}
	if !math.IsInf(d.WindowBytes(), 1) {
		t.Fatal("classic DCQCN should have an unlimited window")
	}
	if d.Name() != "DCQCN" {
		t.Fatalf("Name = %q", d.Name())
	}
}

func TestCNPCutsRate(t *testing.T) {
	th := &timerHarness{}
	d := newDCQCN(th, Config{})
	r0 := d.RateBps()
	d.OnCNP(th.Now())
	// α starts at 1, updated to (1-g)+g = 1, cut = 1 - α/2 = 0.5.
	if got := d.RateBps(); math.Abs(got-r0/2) > 1 {
		t.Fatalf("rate after first CNP = %v, want %v", got, r0/2)
	}
	if d.TargetRate() != r0 {
		t.Fatalf("target = %v, want previous rate %v", d.TargetRate(), r0)
	}
}

func TestDecreaseGapTd(t *testing.T) {
	th := &timerHarness{}
	d := newDCQCN(th, Config{MinDecGap: 50 * sim.Microsecond})
	d.OnCNP(th.Now())
	r1 := d.RateBps()
	th.AdvanceTo(10 * sim.Microsecond)
	d.OnCNP(th.Now()) // within Td: suppressed
	if d.RateBps() != r1 {
		t.Fatal("second CNP within Td cut the rate again")
	}
	th.AdvanceTo(70 * sim.Microsecond)
	d.OnCNP(th.Now()) // beyond Td: cuts
	if d.RateBps() >= r1 {
		t.Fatal("CNP after Td did not cut the rate")
	}
}

// With no ACKs, the rate timer alone drives the increase:
// after a cut, F = 5 timer events of fast recovery keep Rt and halve
// Rt − Rc each, and the 6th is additive, raising Rt by exactly RateAI
// (40 Mbps at 25 Gbps).
func TestFastRecoveryApproachesTarget(t *testing.T) {
	th := &timerHarness{}
	d := newDCQCN(th, Config{RateIncTimer: 100 * sim.Microsecond})
	// Two cuts pull Rt to half the line rate, so an additive step is not
	// hidden by the cap at line rate.
	d.OnCNP(th.Now())
	th.AdvanceTo(10 * sim.Microsecond)
	d.OnCNP(th.Now())
	rt, gap := d.TargetRate(), d.TargetRate()-d.RateBps()
	if rt != float64(line)/2 || gap <= 0 {
		t.Fatalf("after two cuts Rt = %v, Rc = %v; want Rt = line/2 above Rc", rt, d.RateBps())
	}
	for event := 1; event <= 5; event++ {
		th.AdvanceTo(sim.Time(event) * 100 * sim.Microsecond)
		gap /= 2
		if d.TargetRate() != rt || math.Abs(d.TargetRate()-d.RateBps()-gap) > 1e-6*gap {
			t.Fatalf("timer event %d: Rt = %v, Rt−Rc = %v; want Rt kept at %v and Rt−Rc = %v",
				event, d.TargetRate(), d.TargetRate()-d.RateBps(), rt, gap)
		}
	}
	th.AdvanceTo(600 * sim.Microsecond)
	if got := d.TargetRate() - rt; got != float64(40*sim.Mbps) {
		t.Fatalf("timer event 6 raised Rt by %v, want RateAI = %v", got, float64(40*sim.Mbps))
	}
}

func TestAdditiveThenHyperIncrease(t *testing.T) {
	th := &timerHarness{}
	cfg := Config{RateIncTimer: 100 * sim.Microsecond}
	d := newDCQCN(th, cfg)
	d.OnCNP(th.Now())
	// After F=5 timer ticks, timeStage exceeds F: additive increase
	// raises Rt by RateAI each tick. No ACK advances the byte counter,
	// so HAI (needs both counters past F) never triggers.
	th.AdvanceTo(20*100*sim.Microsecond + sim.Microsecond)
	if d.TargetRate() <= d.RateBps()/2 {
		t.Fatal("target rate did not grow under AI")
	}
	rtBefore := d.TargetRate()
	th.AdvanceTo(21*100*sim.Microsecond + sim.Microsecond)
	wantAI := float64(sim.Rate(int64(40*sim.Mbps) * int64(line) / int64(25*sim.Gbps)))
	if got := d.TargetRate() - rtBefore; math.Abs(got-wantAI) > 1 && d.TargetRate() < float64(line) {
		t.Fatalf("AI step = %v, want %v", got, wantAI)
	}
}

// The byte counter raises the rate once ByteCounter bytes have been
// acknowledged since its last event, not a byte earlier, and then
// counts afresh.
func TestByteCounterTriggersIncrease(t *testing.T) {
	th := &timerHarness{}
	cfg := Config{RateIncTimer: sim.Second}
	d := newDCQCN(th, cfg)
	d.OnCNP(th.Now())
	r1 := d.RateBps()
	d.OnAck(&cc.AckEvent{AckedBytes: ByteCounter - 1})
	if d.RateBps() != r1 {
		t.Fatalf("%d B acknowledged moved the rate %v → %v", ByteCounter-1, r1, d.RateBps())
	}
	// The byte that completes ByteCounter: one increase event (fast
	// recovery: halve the gap to target).
	d.OnAck(&cc.AckEvent{AckedBytes: 1})
	r2 := d.RateBps()
	if r2 <= r1 {
		t.Fatal("byte counter did not trigger an increase")
	}
	d.OnAck(&cc.AckEvent{AckedBytes: ByteCounter - 1})
	if d.RateBps() != r2 {
		t.Fatalf("the count did not restart: %d B more moved the rate %v → %v", ByteCounter-1, r2, d.RateBps())
	}
}

func TestHyperIncreaseWhenBothExceed(t *testing.T) {
	th := &timerHarness{}
	cfg := Config{RateIncTimer: 100 * sim.Microsecond}
	d := newDCQCN(th, cfg)
	// Two spaced CNPs pull the target rate well below line rate so the
	// increase steps are observable (Rt saturates at line otherwise).
	d.OnCNP(th.Now())
	th.AdvanceTo(10 * sim.Microsecond)
	d.OnCNP(th.Now())
	// Drive the byte counter past F.
	for i := 0; i < 6; i++ {
		d.OnAck(&cc.AckEvent{AckedBytes: ByteCounter})
	}
	// And the timer counter past F.
	th.AdvanceTo(th.Now() + 6*100*sim.Microsecond + sim.Microsecond)
	rtBefore := d.TargetRate()
	d.OnAck(&cc.AckEvent{AckedBytes: ByteCounter}) // both counters > F: HAI
	got := d.TargetRate() - rtBefore
	if math.Abs(got-float64(400*sim.Mbps)) > 1 {
		t.Fatalf("HAI step = %v, want %v", got, float64(400*sim.Mbps))
	}
}

func TestAlphaDecaysWithoutCNP(t *testing.T) {
	th := &timerHarness{}
	d := newDCQCN(th, Config{})
	d.OnCNP(th.Now())
	a0 := d.Alpha()
	th.AdvanceTo(10 * AlphaTimer)
	if d.Alpha() >= a0 {
		t.Fatalf("alpha did not decay: %v -> %v", a0, d.Alpha())
	}
	want := a0 * math.Pow(1-G, 9) // first tick sees cnpSeen=true
	if math.Abs(d.Alpha()-want)/want > 0.02 {
		t.Fatalf("alpha = %v, want ≈ %v", d.Alpha(), want)
	}
}

func TestWindowVariant(t *testing.T) {
	th := &timerHarness{}
	d := newDCQCN(th, Config{Window: true})
	if d.Name() != "DCQCN+win" {
		t.Fatalf("Name = %q", d.Name())
	}
	// W = Rc × T = 25G/8 × 10µs = 31250 bytes.
	if got := d.WindowBytes(); math.Abs(got-31250) > 1 {
		t.Fatalf("window = %v, want 31250", got)
	}
	d.OnCNP(th.Now())
	if got := d.WindowBytes(); math.Abs(got-31250/2) > 1 {
		t.Fatalf("window after cut = %v, want %v", got, 31250.0/2)
	}
}

// Property: the rate always stays within [MinRate, LineRate] under any
// interleaving of CNPs, ACKs and timer advances.
func TestRateBoundsProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		th := &timerHarness{}
		d := newDCQCN(th, Config{})
		for i := 0; i < int(steps); i++ {
			switch rng.Intn(3) {
			case 0:
				d.OnCNP(th.Now())
			case 1:
				d.OnAck(&cc.AckEvent{AckedBytes: rng.Int63n(1 << 22)})
			case 2:
				th.AdvanceTo(th.Now() + sim.Time(rng.Int63n(int64(sim.Millisecond))))
			}
			r := d.RateBps()
			if math.IsNaN(r) || r < float64(line)/1000-1 || r > float64(line)+1 {
				return false
			}
			if a := d.Alpha(); a < 0 || a > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
