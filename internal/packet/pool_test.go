package packet

import (
	"testing"
	"unsafe"
)

// Every frame is sized to what it carries: a plain frame in 72 bytes, a
// frame with an INT stack in one 288-byte object, its 280 bytes padded
// to 4.5 cache lines.
func TestFrameLayout(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 72 {
		t.Errorf("Sizeof(Packet) = %d, want 72", got)
	}
	if got := unsafe.Sizeof(stacked{}); got != 288 {
		t.Errorf("Sizeof(stacked) = %d, want 288", got)
	}
	p := NewPool().GetINT()
	if uintptr(unsafe.Pointer(p.INT)) != uintptr(unsafe.Pointer(p))+unsafe.Offsetof(stacked{}.int) {
		t.Error("a GetINT frame's stack is not the one allocated beside it")
	}
}

// Each list serves its own kind: Put files a frame by whether it has a
// stack, Get never hands out a stacked frame and GetINT never a plain
// one, and both come back zeroed but for the stack pointer.
func TestPoolKeepsFrameKinds(t *testing.T) {
	pl := NewPool()
	plain, withINT := pl.Get(), pl.GetINT()
	if plain.INT != nil || withINT.INT == nil {
		t.Fatalf("Get INT = %p, GetINT INT = %p", plain.INT, withINT.INT)
	}
	stack := withINT.INT
	for i := 0; i < MaxHops+1; i++ {
		stack.Push(Hop{QLen: 1}, 7)
	}
	plain.Seq, withINT.Seq, withINT.ECNCE = 5, 6, true
	pl.Put(plain)
	pl.Put(withINT)

	if got := pl.Get(); got != plain || *got != (Packet{}) {
		t.Fatalf("Get = %p %+v, want the plain frame %p zeroed", got, got, plain)
	}
	got := pl.GetINT()
	if got != withINT || got.INT != stack || *got != (Packet{INT: stack}) {
		t.Fatalf("GetINT = %p %+v, want the stacked frame %p zeroed but for its stack", got, got, withINT)
	}
	if stack.NHops != 0 || stack.PathID != 0 || len(stack.Records()) != 0 {
		t.Fatalf("recycled stack NHops %d PathID %#x, want empty", stack.NHops, stack.PathID)
	}
	if pl.Allocated() != 2 || pl.Recycled() != 2 {
		t.Fatalf("allocated %d, recycled %d; want 2 and 2", pl.Allocated(), pl.Recycled())
	}
}

// A warm pool recycles without allocating, for either kind of frame.
func TestPoolCyclesAllocFree(t *testing.T) {
	pl := NewPool()
	pl.Put(pl.Get())
	pl.Put(pl.GetINT())
	for _, c := range []struct {
		name string
		get  func() *Packet
	}{{"Get", pl.Get}, {"GetINT", pl.GetINT}} {
		if avg := testing.AllocsPerRun(1000, func() { pl.Put(c.get()) }); avg != 0 {
			t.Errorf("%s→Put allocates %.2f times per cycle, want 0", c.name, avg)
		}
	}
}

// Free counts frames, not list links: after every carved frame comes
// back it equals Allocated, and a frame Put twice shows as one too many
// even though the second Put only relinks it.
func TestPoolFreeCountsEveryPut(t *testing.T) {
	pl := NewPool()
	a, b, c := pl.Get(), pl.GetINT(), pl.Get()
	if pl.Free() != 0 {
		t.Fatalf("Free = %d with every frame out, want 0", pl.Free())
	}
	pl.Put(a)
	pl.Put(b)
	pl.Put(c)
	if pl.Free() != pl.Allocated() {
		t.Fatalf("Free = %d after every frame came back, want %d", pl.Free(), pl.Allocated())
	}
	pl.Put(a)
	if pl.Free() != pl.Allocated()+1 {
		t.Fatalf("Free = %d after a double Put, want %d", pl.Free(), pl.Allocated()+1)
	}
}
