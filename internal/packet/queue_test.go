package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueBasics(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	p1, p2 := &Packet{Seq: 1}, &Packet{Seq: 2}
	q.Push(p1, -1)
	q.Push(p2, MaxPorts)
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	if p, in := q.Pop(); p != p1 || in != -1 || p.next != nil {
		t.Fatalf("pop 1 = seq %d ingress %d next %p, want seq 1 ingress -1 unlinked", p.Seq, in, p.next)
	}
	if p, in := q.Pop(); p != p2 || in != MaxPorts {
		t.Fatalf("pop 2 = seq %d ingress %d, want seq 2 ingress %d", p.Seq, in, MaxPorts)
	}
	if q.Len() != 0 || q.head != nil || q.tail != nil {
		t.Fatal("queue not empty after draining")
	}
}

// Property: any interleaving of pushes and pops returns the frames and
// their ingress ports in the order a slice model does, keeps the same
// length, and hands every frame back unlinked.
func TestQueueMatchesSliceModel(t *testing.T) {
	type item struct {
		p       *Packet
		ingress int
	}
	f := func(seed int64, ops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var model []item
		pop := func() bool {
			p, in := q.Pop()
			want := model[0]
			model = model[1:]
			return p == want.p && in == want.ingress && p.next == nil
		}
		for i := 0; i < int(ops); i++ {
			if len(model) == 0 || rng.Intn(3) > 0 {
				it := item{&Packet{Seq: int64(i)}, rng.Intn(MaxPorts+2) - 1}
				q.Push(it.p, it.ingress)
				model = append(model, it)
			} else if !pop() {
				return false
			}
			if q.Len() != len(model) {
				return false
			}
		}
		for len(model) > 0 {
			if !pop() {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A queue links its frames through themselves, so filling it with
// 10 000 frames and draining it allocates nothing, however deep it gets.
func TestQueueAllocatesNothing(t *testing.T) {
	frames := make([]Packet, 10_000)
	var q Queue
	if avg := testing.AllocsPerRun(10, func() {
		for i := range frames {
			q.Push(&frames[i], i%3-1)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); avg != 0 {
		t.Errorf("pushing and popping %d frames allocates %.2f times, want 0", len(frames), avg)
	}
}
