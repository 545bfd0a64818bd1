package dctcp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hpcc/internal/cc"
	"hpcc/internal/sim"
)

const (
	line = 100 * sim.Gbps
	bdp  = 125_000.0
)

func newDCTCP() *DCTCP {
	d := New()().(*DCTCP)
	d.Init(cc.Env{
		Now:      func() sim.Time { return 0 },
		Schedule: func(d sim.Time, fn func()) {},
		LineRate: line,
		BaseRTT:  10 * sim.Microsecond,
		MTU:      1000,
	})
	return d
}

func TestNoSlowStart(t *testing.T) {
	d := newDCTCP()
	if got := d.WindowBytes(); math.Abs(got-bdp) > 1 {
		t.Fatalf("initial window = %v, want one BDP (%v) — slow start removed per §5.1", got, bdp)
	}
}

func TestCleanRTTAddsOneMSS(t *testing.T) {
	d := newDCTCP()
	w := d.WindowBytes()
	// First ACK closes the trivial window [0,0) and opens a real one.
	d.OnAck(&cc.AckEvent{AckSeq: 1000, SndNxt: 125_000, AckedBytes: 1000})
	w1 := d.WindowBytes()
	if math.Abs(w1-(w+1000)) > 1 {
		t.Fatalf("window after clean RTT = %v, want %v", w1, w+1000)
	}
	// Mid-window ACKs don't change W.
	d.OnAck(&cc.AckEvent{AckSeq: 50_000, SndNxt: 150_000, AckedBytes: 49_000})
	if d.WindowBytes() != w1 {
		t.Fatal("window changed mid-observation-window")
	}
}

func TestFullyMarkedWindowConvergesToHalving(t *testing.T) {
	d := newDCTCP()
	seq := int64(0)
	// Every byte marked for many RTTs: α → 1.
	for i := 0; i < 200; i++ {
		seq += 125_000
		d.OnAck(&cc.AckEvent{AckSeq: seq, SndNxt: seq + 125_000, AckedBytes: 125_000, ECE: true})
	}
	if d.Alpha() < 0.99 {
		t.Fatalf("alpha = %v, want → 1 under persistent marking", d.Alpha())
	}
	// With α ≈ 1 the per-RTT cut is one half (classic TCP behaviour).
	d.w = bdp
	before := d.WindowBytes()
	seq += 125_000
	d.OnAck(&cc.AckEvent{AckSeq: seq, SndNxt: seq + 125_000, AckedBytes: 125_000, ECE: true})
	ratio := d.WindowBytes() / before
	if math.Abs(ratio-0.5) > 0.01 {
		t.Fatalf("cut ratio = %v, want ≈ 0.5", ratio)
	}
}

// α is an EWMA of the marked byte fraction with gain g = 1/16. Half of
// one window marked gives α = 0.5/16; after n windows whose every byte
// was marked, starting from α = 0, α = 1 − (1 − 1/16)ⁿ.
func TestAlphaEWMA(t *testing.T) {
	d := newDCTCP()
	// Prime: the first ACK closes the trivial [0,0) window and opens a
	// real observation window ending at 125 000.
	d.OnAck(&cc.AckEvent{AckSeq: 1000, SndNxt: 125_000, AckedBytes: 1000})
	d.OnAck(&cc.AckEvent{AckSeq: 63_000, SndNxt: 150_000, AckedBytes: 62_000})
	d.OnAck(&cc.AckEvent{AckSeq: 125_000, SndNxt: 187_500, AckedBytes: 62_000, ECE: true})
	if want := 0.5 / 16; math.Abs(d.Alpha()-want) > 1e-12 {
		t.Fatalf("alpha after a half-marked window = %v, want %v", d.Alpha(), want)
	}

	d = newDCTCP()
	d.OnAck(&cc.AckEvent{AckSeq: 1000, SndNxt: 125_000, AckedBytes: 1000})
	seq := int64(1000)
	for n := 1; n <= 40; n++ {
		end := seq + 124_000
		d.OnAck(&cc.AckEvent{AckSeq: end, SndNxt: end + 124_000, AckedBytes: end - seq, ECE: true})
		seq = end
		if want := 1 - math.Pow(1-1.0/16, float64(n)); math.Abs(d.Alpha()-want) > 1e-12 {
			t.Fatalf("alpha after %d fully marked windows = %v, want %v", n, d.Alpha(), want)
		}
	}
}

func TestWindowFloor(t *testing.T) {
	d := newDCTCP()
	seq := int64(0)
	for i := 0; i < 500; i++ {
		seq += 10_000
		d.OnAck(&cc.AckEvent{AckSeq: seq, SndNxt: seq + 10_000, AckedBytes: 10_000, ECE: true})
	}
	if d.WindowBytes() < 1000 {
		t.Fatalf("window fell below one MTU: %v", d.WindowBytes())
	}
}

func TestRateFollowsWindow(t *testing.T) {
	d := newDCTCP()
	wantRate := d.WindowBytes() / (10 * sim.Microsecond).Seconds() * 8
	if math.Abs(d.RateBps()-wantRate) > 1 {
		t.Fatalf("rate = %v, want W/T = %v", d.RateBps(), wantRate)
	}
}

// Property: window within [MTU, MaxWindowBDP×BDP] and α within [0,1]
// for arbitrary ACK streams.
func TestBoundsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := newDCTCP()
		seq := int64(0)
		for i := 0; i < int(n); i++ {
			adv := rng.Int63n(200_000) + 1
			seq += adv
			d.OnAck(&cc.AckEvent{
				AckSeq:     seq,
				SndNxt:     seq + rng.Int63n(200_000),
				AckedBytes: adv,
				ECE:        rng.Intn(2) == 0,
			})
			w := d.WindowBytes()
			if math.IsNaN(w) || w < 999 || w > 8*bdp+1 {
				return false
			}
			if a := d.Alpha(); a < 0 || a > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
