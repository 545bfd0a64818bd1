package host

import (
	"math/rand"

	"testing"

	"hpcc/internal/cc"
	"hpcc/internal/cc/dcqcn"
	"hpcc/internal/fabric"
	"hpcc/internal/sim"
)

// With CompletedWindow set, the per-host sender-QP slice must plateau
// at the window while a long run keeps completing flows — the bounded-memory
// contract for multi-minute campaigns — and the evicted aggregate must
// keep whole-run accounting exact.
func TestCompletedWindowPlateaus(t *testing.T) {
	hcfg := hpccConfig()
	hcfg.CompletedWindow = 16
	nw := buildStar(2, hcfg, fabric.SwitchConfig{PFCEnabled: true, INTEnabled: true}, line100, sim.Microsecond)

	const rounds = 400
	maxLive := 0
	done := 0
	var sentPkts uint64
	var launch func(i int)
	launch = func(i int) {
		if i == rounds {
			return
		}
		nw.start(0, 1, 3_000, func(f *Flow) {
			done++
			sentPkts += f.PacketsSent()
			if n := len(nw.hosts[0].sendQP) - 1; n > maxLive {
				maxLive = n
			}
			launch(i + 1)
		})
	}
	launch(0)
	nw.run(t)

	if done != rounds {
		t.Fatalf("completed %d flows, want %d", done, rounds)
	}
	// The slice may briefly hold window+live flows; it must not grow
	// with the round count.
	if maxLive > hcfg.CompletedWindow+2 {
		t.Fatalf("%d sender QPs issued (window %d): memory does not plateau",
			maxLive, hcfg.CompletedWindow)
	}
	h := nw.hosts[0]
	evicted, evictedPkts := h.EvictedFlows()
	if evicted != rounds-len(h.Flows()) {
		t.Fatalf("evicted %d, retained %d, total %d: accounting mismatch",
			evicted, len(h.Flows()), rounds)
	}
	var retainedPkts uint64
	for _, f := range h.Flows() {
		retainedPkts += f.PacketsSent()
	}
	if evictedPkts+retainedPkts != sentPkts {
		t.Fatalf("evicted %d + retained %d packets != sent %d",
			evictedPkts, retainedPkts, sentPkts)
	}
}

// Without the window every flow is retained (the historical default).
func TestCompletedWindowOffRetainsAll(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{PFCEnabled: true, INTEnabled: true}, line100, sim.Microsecond)
	const rounds = 50
	var launch func(i int)
	launch = func(i int) {
		if i == rounds {
			return
		}
		nw.start(0, 1, 2_000, func(*Flow) { launch(i + 1) })
	}
	launch(0)
	nw.run(t)
	if n := len(nw.hosts[0].Flows()); n != rounds {
		t.Fatalf("retained %d flows, want all %d", n, rounds)
	}
	if evicted, _ := nw.hosts[0].EvictedFlows(); evicted != 0 {
		t.Fatalf("evicted %d flows with the window off", evicted)
	}
}

// epochCC wraps a CC instance to catch a timer outliving its transfer:
// every callback armed through Env.Schedule remembers which Init armed
// it, and counts as stale if it runs after a later Init.
type epochCC struct {
	cc.Algorithm
	epoch int
	stale *int
}

func (e *epochCC) Init(env cc.Env) {
	e.epoch++
	schedule := env.Schedule
	env.Schedule = func(d sim.Time, fn func()) {
		armed := e.epoch
		schedule(d, func() {
			if e.epoch != armed {
				*e.stale++
			}
			fn()
		})
	}
	e.Algorithm.Init(env)
}

// A recycled flow must not hear from its previous transfer. DCQCN's
// alpha (55 µs) and rate (300 µs) clocks are still queued when a one-
// packet flow finishes ≈ 4 µs after it started, and with a window of 1
// its *Flow and CC instance are running the third flow after it by then:
// the generation stamped into the trampoline is what stops those clocks
// from ticking (and re-arming themselves) against the new transfer.
func TestRecycledFlowDropsStaleCCTimers(t *testing.T) {
	stale, instances := 0, 0
	hcfg := Config{
		CC: func() cc.Algorithm {
			instances++
			return &epochCC{Algorithm: dcqcn.New(dcqcn.Config{})(), stale: &stale}
		},
		BaseRTT:         10 * sim.Microsecond,
		CompletedWindow: 1,
	}
	nw := buildStar(2, hcfg, fabric.SwitchConfig{}, line100, sim.Microsecond)

	// One-packet flows, each started up to 8 µs after the previous one
	// finished. The jitter matters: strictly back-to-back flows make the
	// run periodic (4.18 µs a flow, three *Flow taking turns), and a
	// 55 µs clock then lands on another object's turn every time.
	const rounds = 200
	left := rounds
	var next func(*Flow)
	next = func(*Flow) {
		if left > 0 {
			left--
			gap := sim.Time(uint32(left)*2654435761>>29) * sim.Microsecond
			nw.eng.After(gap, func() { nw.start(0, 1, 1000, next) })
		}
	}
	next(nil)
	nw.run(t)

	if left != 0 || instances > 3 {
		t.Fatalf("%d flows left, %d CC instances for %d flows: flows were not recycled", left, instances, rounds)
	}
	if stale != 0 {
		t.Fatalf("%d CC timer callbacks armed by a finished transfer ran against a later one", stale)
	}
}

// QP hygiene under the tightest retention: with CompletedWindow 1, 2 400
// flows and 400 RDMA READs between random pairs of a lossy 4-host star,
// arriving in bursts of 40, recycle every sender and receive QP many
// times over, and every host's QPs stay bound or free (never both,
// never neither), checked every 10 µs of the run and at its end.
func TestQPAuditUnderWindowOne(t *testing.T) {
	hcfg := hpccConfig()
	hcfg.CompletedWindow = 1
	scfg := fabric.SwitchConfig{INTEnabled: true, BufferBytes: 150_000, LossyEgressAlpha: 1}
	nw := buildStar(4, hcfg, scfg, line100, sim.Microsecond)
	rng := rand.New(rand.NewSource(1))
	const total = 2800
	done := 0
	for i := 0; i < total; i++ {
		src := rng.Intn(4)
		dst := (src + 1 + rng.Intn(3)) % 4
		size := int64(1+rng.Intn(20)) * 1000
		id := -int32(i + 1)
		nw.eng.At(sim.Time(i/40)*40*sim.Microsecond, func() {
			if id%7 == 0 {
				nw.hosts[src].Read(id, nw.hosts[dst], size, 0, func() { done++ })
			} else {
				nw.start(src, dst, size, func(*Flow) { done++ })
			}
		})
	}
	audit := func() {
		t.Helper()
		for _, h := range nw.hosts {
			if err := h.AuditFreeLists(); err != nil {
				t.Fatalf("at %v: %v", nw.eng.Now(), err)
			}
		}
	}
	for at := sim.Time(0); done < total && at < 50*sim.Millisecond; at += 10 * sim.Microsecond {
		nw.eng.RunUntil(at)
		audit()
	}
	nw.run(t)
	audit()
	drops := nw.sw.Drops()
	for _, h := range nw.hosts {
		if n := h.OpenRecvQPs(); n != 0 || done != total || drops == 0 {
			t.Fatalf("%d of %d transfers done, %d drops, %d receive QPs open at host %d; want all done, some drops, none open",
				done, total, drops, n, h.ID())
		}
		// About 700 transfers a host, at most a few dozen at once.
		if len(h.recv) > 150 || len(h.sendQP) > 150 {
			t.Fatalf("host %d issued %d receive and %d sender QPs for %d transfers in all: QPs are not recycled",
				h.ID(), len(h.recv)-1, len(h.sendQP)-1, total)
		}
	}
}
