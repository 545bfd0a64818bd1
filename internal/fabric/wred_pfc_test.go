package fabric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hpcc/internal/sim"
)

// WRED marks a data packet enqueued at egress depth q (its own bytes
// included) with probability p(q) = (q − KMin)/(KMax − KMin) · PMax for
// KMin < q ≤ KMax, never at or below KMin, and always above KMax. With
// the egress paused every packet's depth is known, so over many
// switches the marked count must lie within 4σ of Σ p(q).
func TestWREDMarkingProbability(t *testing.T) {
	const kMin, kMax = 20_000, 80_000
	const pMax = 0.2 // the paper's DCQCN setting, not PMax
	var marked, want, variance float64
	for seed := int64(1); seed <= 40; seed++ {
		cfg := SwitchConfig{ECNEnabled: true, KMin: kMin, KMax: kMax, Seed: seed}
		_, a, s, b := lineTopo(t, cfg, 100*sim.Gbps, 0)
		in, eg := s.Ports()[0], s.Ports()[1]
		eg.SetPaused(true)
		for i := int64(0); eg.QueueBytes() <= 2*kMax; i++ {
			p := data(1, a.id, b.id, i*1000, 1064)
			s.HandleArrival(p, in)
			switch q := eg.QueueBytes(); {
			case q > kMax && !p.ECNCE:
				t.Fatalf("seed %d: packet at depth %d > KMax not marked", seed, q)
			case q <= kMin && p.ECNCE:
				t.Fatalf("seed %d: packet at depth %d <= KMin marked", seed, q)
			case q > kMin && q <= kMax:
				pq := float64(q-kMin) / (kMax - kMin) * pMax
				want += pq
				variance += pq * (1 - pq)
				if p.ECNCE {
					marked++
				}
			}
		}
	}
	sd := math.Sqrt(variance)
	if math.Abs(marked-want) > 4*sd {
		t.Fatalf("%v packets marked between KMin and KMax, want %.1f ± %.1f (4σ)", marked, want, 4*sd)
	}
	t.Logf("%v packets marked between KMin and KMax, want %.1f ± %.1f (4σ)", marked, want, 4*sd)
}

// PFC (§5.1): an ingress is paused on the enqueue that first lifts its
// buffered bytes above α × free buffer, α = 11 %, and resumed on the
// dequeue that drains it to that threshold less PFCResumeHysteresis.
// A model of that rule runs beside a three-port switch (two ingresses
// feeding one egress the test drains a packet at a time) over random
// fill-and-drain sequences: every frame must go out at the step the
// model predicts, and every pause pairs with a resume once the queue
// drains.
func TestPFCThresholdProperty(t *testing.T) {
	const alpha = 0.11 // the paper's dynamic threshold, not PFCAlpha
	pauses := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := []int64{64 << 10, 256 << 10, 1 << 20}[rng.Intn(3)]
		eng := sim.NewEngine()
		s := NewSwitch(eng, 100, SwitchConfig{BufferBytes: buf, PFCEnabled: true})
		hosts := []*mockHost{{id: 1, eng: eng}, {id: 2, eng: eng}, {id: 3, eng: eng}}
		for i, h := range hosts {
			hp, sp := Connect(eng, h, s, 0, i, 100*sim.Gbps, 0)
			h.ports = append(h.ports, hp)
			s.AttachPort(sp)
			s.InstallRoute(h.id, []int{i})
		}
		eg := s.Ports()[1] // toward host 2; hosts 1 and 3 send
		eg.SetPaused(true)

		// The model, and the frames each upstream host saw this step.
		var used int64
		var ingress [3]int64
		var paused [3]bool
		var fifo []struct{ in, size int64 }
		var got [3][]bool
		for i, h := range hosts {
			h.ports[0].SetPauseHook(func(p bool) { got[i] = append(got[i], p) })
		}
		frames := uint64(0)
		// step applies one arrival (in >= 0) or dequeue (in < 0) and
		// checks the frame the model expects, if any.
		step := func(in int, size int64) bool {
			want := [3][]bool{}
			if in >= 0 {
				s.HandleArrival(data(1, hosts[in].id, 2, 0, int32(size)), s.Ports()[in])
				fifo = append(fifo, struct{ in, size int64 }{int64(in), size})
				used += size
				ingress[in] += size
				if !paused[in] && ingress[in] > int64(alpha*float64(buf-used)) {
					paused[in], want[in] = true, []bool{true}
				}
			} else {
				eg.SetPaused(false) // serializes the head frame
				eg.SetPaused(true)
				head := fifo[0]
				fifo = fifo[1:]
				used -= head.size
				ingress[head.in] -= head.size
				resumeAt := max(int64(alpha*float64(buf-used))-PFCResumeHysteresis, 0)
				if paused[head.in] && ingress[head.in] <= resumeAt {
					paused[head.in], want[head.in] = false, []bool{false}
				}
			}
			got = [3][]bool{}
			eng.RunUntil(eng.Now() + sim.Microsecond) // frames reach the hosts
			for i := range want {
				if len(got[i]) != len(want[i]) || len(got[i]) == 1 && got[i][0] != want[i][0] {
					t.Logf("seed %d, buffer %d: ingress %d saw %v, want %v (ingress %d B, used %d B)",
						seed, buf, i, got[i], want[i], ingress[i], used)
					return false
				}
				frames += uint64(len(want[i]))
				if len(want[i]) == 1 && want[i][0] {
					pauses++
				}
			}
			if s.PFCFramesSent() != frames {
				t.Logf("seed %d: switch sent %d PFC frames, model %d", seed, s.PFCFramesSent(), frames)
				return false
			}
			return true
		}
		for cycle := 0; cycle < 2; cycle++ {
			for used < buf*3/10 {
				in := []int{0, 2}[rng.Intn(2)]
				if len(fifo) > 0 && rng.Intn(5) == 0 {
					in = -1
				}
				if !step(in, 64+rng.Int63n(1001)) {
					return false
				}
			}
			for len(fifo) > 0 {
				in := -1
				if rng.Intn(5) == 0 {
					in = []int{0, 2}[rng.Intn(2)]
				}
				if !step(in, 64+rng.Int63n(1001)) {
					return false
				}
			}
		}
		// Drained: every pause has been paired with its resume.
		return !paused[0] && !paused[2] && !hosts[0].ports[0].Paused() &&
			!hosts[2].ports[0].Paused() && s.Drops() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if pauses == 0 {
		t.Fatal("no sequence paused an ingress; the property was never exercised")
	}
	t.Logf("%d pause/resume pairs checked", pauses)
}
