package fabric

import (
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

// Property: any interleaving of pushes and pops preserves FIFO order,
// across the ring's compaction paths.
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

// Property: compaction never loses or duplicates entries even under
// long runs that repeatedly cross the compaction threshold.
func TestFifoCompactionProperty(t *testing.T) {
	var q fifo[entry]
	id := int64(0)
	popped := int64(0)
	// Sawtooth: grow to 400, drain to 100, repeatedly.
	for round := 0; round < 20; round++ {
		for q.len() < 400 {
			id++
			q.push(entry{&packet.Packet{Seq: id}, -1})
		}
		for q.len() > 100 {
			popped++
			if q.pop().p.Seq != popped {
				t.Fatalf("round %d: out of order at %d", round, popped)
			}
		}
	}
	for !q.empty() {
		popped++
		if q.pop().p.Seq != popped {
			t.Fatalf("drain: out of order at %d", popped)
		}
	}
	if popped != id {
		t.Fatalf("popped %d of %d pushed", popped, id)
	}
}
