package fabric

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"hpcc/internal/packet"
)

func TestFifoBasics(t *testing.T) {
	var f fifo[entry]
	if !f.empty() || f.len() != 0 {
		t.Fatal("new fifo not empty")
	}
	p1 := &packet.Packet{Seq: 1}
	p2 := &packet.Packet{Seq: 2}
	f.push(entry{p1, 0})
	f.push(entry{p2, 1})
	if f.len() != 2 {
		t.Fatalf("len = %d", f.len())
	}
	if got := f.pop(); got.p.Seq != 1 || got.ingress != 0 {
		t.Fatalf("pop 1 = %+v", got)
	}
	if got := f.pop(); got.p.Seq != 2 || got.ingress != 1 {
		t.Fatalf("pop 2 = %+v", got)
	}
	if !f.empty() {
		t.Fatal("fifo not empty after draining")
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order as
// the ring wraps and grows.
func TestFifoOrderProperty(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var q fifo[entry]
		nextPush := int64(1)
		nextPop := int64(1)
		for i := 0; i < int(ops); i++ {
			if q.empty() || rng.Intn(3) > 0 {
				q.push(entry{&packet.Packet{Seq: nextPush}, int(nextPush)})
				nextPush++
			} else {
				e := q.pop()
				if e.p.Seq != nextPop || e.ingress != int(nextPop) {
					return false
				}
				nextPop++
			}
			if q.len() != int(nextPush-nextPop) {
				return false
			}
		}
		for !q.empty() {
			if q.pop().p.Seq != nextPop {
				return false
			}
			nextPop++
		}
		return nextPop == nextPush
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The ring keeps FIFO order while its head wraps around under
// interleaved pushes and pops, grows only when full — never past 16 or
// the next power of two of the longest the queue has been — and a warm
// push/pop cycle allocates nothing.
func TestFifoRingWrapsAndStaysTight(t *testing.T) {
	var q fifo[entry]
	pushed, popped, peak, wrapped := int64(0), int64(0), 0, false
	push := func() {
		pushed++
		q.push(entry{&packet.Packet{Seq: pushed}, int(pushed)})
	}
	pop := func() {
		popped++
		if e := q.pop(); e.p.Seq != popped || e.ingress != int(popped) {
			t.Fatalf("popped seq %d ingress %d, want %d", e.p.Seq, e.ingress, popped)
		}
	}
	check := func() {
		peak = max(peak, q.len())
		if want := max(16, 1<<bits.Len(uint(peak-1))); len(q.buf) > want {
			t.Fatalf("ring of %d slots after a peak of %d entries, want at most %d", len(q.buf), peak, want)
		}
		wrapped = wrapped || q.head+q.n > len(q.buf)
	}
	// Sawtooth: two pushes per pop up to hi, two pops per push down to lo.
	for _, r := range []struct{ lo, hi int }{{2, 12}, {5, 40}, {30, 300}, {100, 400}, {0, 1}} {
		for q.len() < r.hi {
			push()
			check()
			push()
			check()
			pop()
			check()
		}
		for q.len() > r.lo+1 {
			pop()
			check()
			pop()
			check()
			push()
			check()
		}
		for q.len() > r.lo {
			pop()
		}
	}
	for !q.empty() {
		pop()
	}
	if popped != pushed || !wrapped {
		t.Fatalf("popped %d of %d pushed, head wrapped: %v; want all, true", popped, pushed, wrapped)
	}
	e := entry{&packet.Packet{}, 0}
	for i := 0; i < 10; i++ {
		q.push(e)
	}
	// AllocsPerRun truncates its average, so each run laps the ring: a
	// cost paid once a lap shows too.
	lap := len(q.buf)
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < lap; i++ {
			q.push(e)
			q.pop()
		}
	}); avg != 0 {
		t.Errorf("a lap of %d warm push/pop cycles allocates %.2f times, want 0", lap, avg)
	}
}
