package experiment

import (
	"testing"

	"hpcc/internal/cc"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// ccDriver feeds one algorithm a synthetic feedback stream — ACKs with
// INT records, a breathing RTT and ECN echoes, a CNP now and then — and
// runs the timers it arms, the way a host would.
type ccDriver struct {
	alg    cc.Algorithm
	now    sim.Time
	timers []ccTimer
}

type ccTimer struct {
	at sim.Time
	fn func()
}

// init (re-)binds the algorithm at line rate `rate`. Like the host, it
// drops whatever the previous Init left armed.
func (d *ccDriver) init(rate sim.Rate) {
	d.timers = nil
	d.alg.Init(cc.Env{
		Now:      func() sim.Time { return d.now },
		Schedule: func(delay sim.Time, fn func()) { d.timers = append(d.timers, ccTimer{d.now + delay, fn}) },
		LineRate: rate,
		BaseRTT:  13 * sim.Microsecond,
		MTU:      packet.DefaultMTU,
		Seed:     1,
	})
}

// drive delivers n ACKs 200 ns apart and returns the window and rate
// after each. The stream depends only on the step and the clock.
func (d *ccDriver) drive(n int) []float64 {
	out := make([]float64, 0, 2*n)
	var hops [2]packet.Hop
	var ev cc.AckEvent
	for i := 1; i <= n; i++ {
		d.now += 200 * sim.Nanosecond
		for k := 0; k < len(d.timers); k++ {
			if tm := d.timers[k]; tm.at <= d.now {
				d.timers = append(d.timers[:k], d.timers[k+1:]...)
				k--
				tm.fn()
			}
		}
		phase := i % 512
		for h := range hops {
			// 60–110 % of a 100 G link, with a queue on the second hop
			// for half of every cycle.
			hops[h] = packet.Hop{B: 100 * sim.Gbps, TS: d.now - sim.Time(2-h)*sim.Microsecond,
				TxBytes: uint64(i) * uint64(1500+phase*2), RxBytes: uint64(i) * uint64(1400+phase*2)}
		}
		if phase > 256 {
			hops[1].QLen = int64(phase-256) * 400
		}
		if i%700 == 0 {
			d.alg.OnCNP(d.now)
		}
		ev = cc.AckEvent{Now: d.now, RTT: sim.Time(14+phase/2) * sim.Microsecond, AckSeq: int64(i) * 1000,
			SndNxt: int64(i)*1000 + 20_000, AckedBytes: 1000, ECE: phase > 400 && i%3 == 0, Hops: hops[:], PathID: 7}
		d.alg.OnAck(&ev)
		out = append(out, d.alg.WindowBytes(), d.alg.RateBps())
	}
	return out
}

// cc.Algorithm's contract for recycled flows: Init on a used instance —
// here one that ran 5000 ACKs at another line rate — starts over exactly
// like Init on a fresh one, defaults derived from the line rate included.
func TestReInitIsFreshInit(t *testing.T) {
	const steps = 5000
	for _, name := range schemeNames {
		t.Run(name, func(t *testing.T) {
			sch := ByNameMust(name)
			used := &ccDriver{alg: sch.Factory()}
			used.init(100 * sim.Gbps)
			first := used.drive(steps)
			moved := false
			for i := 2; i < len(first); i++ {
				moved = moved || first[i] != first[i%2]
			}
			if !moved {
				t.Fatal("the feedback stream never moved the window or the rate: the comparison below would prove nothing")
			}
			t0 := used.now
			used.init(25 * sim.Gbps)
			got := used.drive(steps)

			fresh := &ccDriver{alg: sch.Factory(), now: t0}
			fresh.init(25 * sim.Gbps)
			want := fresh.drive(steps)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ACK %d: re-initialised instance has window/rate %v, fresh instance %v", i/2+1, got[i], want[i])
				}
			}
		})
	}
}
