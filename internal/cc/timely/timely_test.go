package timely

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hpcc/internal/cc"
	"hpcc/internal/sim"
)

const line = 100 * sim.Gbps

func newTimely(cfg Config) *Timely {
	tl := New(cfg)().(*Timely)
	tl.Init(cc.Env{
		Now:      func() sim.Time { return 0 },
		Schedule: func(d sim.Time, fn func()) {},
		LineRate: line,
		BaseRTT:  10 * sim.Microsecond,
		MTU:      1000,
	})
	return tl
}

func ack(rtt sim.Time) *cc.AckEvent { return &cc.AckEvent{RTT: rtt, AckedBytes: 1000} }

func TestInitAtLineRate(t *testing.T) {
	tl := newTimely(Config{})
	if tl.RateBps() != float64(line) {
		t.Fatalf("initial rate = %v", tl.RateBps())
	}
	if !math.IsInf(tl.WindowBytes(), 1) {
		t.Fatal("classic TIMELY should have an unlimited window")
	}
}

func TestBelowTLowAdditiveIncrease(t *testing.T) {
	tl := newTimely(Config{})
	// Pull the rate down first so increases are visible.
	tl.OnAck(ack(100 * sim.Microsecond))
	tl.OnAck(ack(600 * sim.Microsecond)) // above THigh: MD
	r := tl.RateBps()
	tl.OnAck(ack(20 * sim.Microsecond)) // below TLow=50us
	want := r + tl.addStep
	if math.Abs(tl.RateBps()-want) > 1 {
		t.Fatalf("rate = %v, want %v", tl.RateBps(), want)
	}
}

func TestAboveTHighMultiplicativeDecrease(t *testing.T) {
	tl := newTimely(Config{})
	tl.OnAck(ack(100 * sim.Microsecond)) // prime prevRTT
	r := tl.RateBps()
	rtt := 1000 * sim.Microsecond
	tl.OnAck(ack(rtt))
	want := r * (1 - 0.8*(1-float64(500*sim.Microsecond)/float64(rtt)))
	if math.Abs(tl.RateBps()-want) > 1 {
		t.Fatalf("rate = %v, want %v", tl.RateBps(), want)
	}
}

func TestPositiveGradientDecreases(t *testing.T) {
	tl := newTimely(Config{})
	tl.OnAck(ack(100 * sim.Microsecond))
	r := tl.RateBps()
	// Growing RTT within [TLow, THigh]: gradient positive → decrease.
	tl.OnAck(ack(110 * sim.Microsecond))
	tl.OnAck(ack(130 * sim.Microsecond))
	if tl.RateBps() >= r {
		t.Fatalf("rate did not decrease on rising RTT: %v -> %v", r, tl.RateBps())
	}
	if tl.Gradient() <= 0 {
		t.Fatalf("gradient = %v, want > 0", tl.Gradient())
	}
}

func TestNegativeGradientStreakHAI(t *testing.T) {
	tl := newTimely(Config{})
	// Crash the rate.
	tl.OnAck(ack(100 * sim.Microsecond))
	for i := 0; i < 5; i++ {
		tl.OnAck(ack(900 * sim.Microsecond))
	}
	r := tl.RateBps()
	// Falling RTTs within the gradient band: first increases are +δ,
	// after 5 consecutive non-positive gradients they jump to +5δ.
	rtts := []sim.Time{400, 350, 300, 260, 230, 210, 190, 180}
	var lastStep float64
	for _, us := range rtts {
		before := tl.RateBps()
		tl.OnAck(ack(us * sim.Microsecond))
		lastStep = tl.RateBps() - before
	}
	if lastStep < 4.9*tl.addStep {
		t.Fatalf("HAI step = %v, want ≈ 5×%v", lastStep, tl.addStep)
	}
	if tl.RateBps() <= r {
		t.Fatal("rate did not recover on falling RTT")
	}
}

func TestWindowVariant(t *testing.T) {
	tl := newTimely(Config{Window: true})
	if tl.Name() != "TIMELY+win" {
		t.Fatalf("Name = %q", tl.Name())
	}
	// W = R × T = 12.5 GB/s × 10 µs = 125000.
	if got := tl.WindowBytes(); math.Abs(got-125000) > 1 {
		t.Fatalf("window = %v", got)
	}
}

func TestIgnoresZeroRTT(t *testing.T) {
	tl := newTimely(Config{})
	r := tl.RateBps()
	tl.OnAck(&cc.AckEvent{RTT: 0})
	if tl.RateBps() != r {
		t.Fatal("reacted to a zero RTT sample")
	}
}

// Property: rate stays within [MinRate, LineRate] for any RTT sequence.
func TestRateBoundsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := newTimely(Config{})
		for i := 0; i < int(n); i++ {
			rtt := sim.Time(rng.Int63n(int64(2*sim.Millisecond)) + int64(sim.Microsecond))
			tl.OnAck(ack(rtt))
			r := tl.RateBps()
			if math.IsNaN(r) || r < float64(line)/1000-1 || r > float64(line)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
