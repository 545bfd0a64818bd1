package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5*Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order at %d: %v", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(Microsecond, tick)
		}
	}
	e.After(Microsecond, tick)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 10*Microsecond {
		t.Fatalf("Now = %v, want 10us", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(Microsecond, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []Timer
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.At(Time(i)*Microsecond, func() { got = append(got, i) }))
	}
	e.Cancel(evs[7])
	e.Cancel(evs[13])
	e.Run()
	if len(got) != 18 {
		t.Fatalf("fired %d events, want 18", len(got))
	}
	for _, v := range got {
		if v == 7 || v == 13 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 1; i <= 5; i++ {
		i := i
		e.At(Time(i)*Millisecond, func() { got = append(got, i) })
	}
	e.RunUntil(3 * Millisecond)
	if len(got) != 3 {
		t.Fatalf("fired %d events by 3ms, want 3", len(got))
	}
	if e.Now() != 3*Millisecond {
		t.Fatalf("Now = %v, want 3ms", e.Now())
	}
	e.Run()
	if len(got) != 5 {
		t.Fatalf("fired %d events total, want 5", len(got))
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i)*Microsecond, func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Fatalf("count = %d, want 4 (Stop should halt the loop)", count)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
}

// PendingHighWater is the deepest the pending set has been: holds that
// refill a pop's hole do not raise it, timers waiting in the far set
// count like heap events, and a run that stops one picosecond short
// leaves the boundary's events queued.
func TestPendingHighWater(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	for i := 1; i <= 5; i++ {
		e.At(Time(i)*Microsecond, nop)
	}
	e.Cancel(e.At(Millisecond, nop)) // six queued, briefly, the sixth in the far set
	for i := 0; i < 3; i++ {
		e.Step()
		e.After(Millisecond, nop) // a hold: depth stays at five
	}
	if got := e.PendingHighWater(); got != 6 || e.Pending() != 5 || len(e.far) != 3 {
		t.Fatalf("high water %d with %d pending, %d of them far, want 6 with 5, 3 far", got, e.Pending(), len(e.far))
	}
	e.RunUntil(5*Microsecond - 1)
	if e.Pending() != 4 || e.Now() != 5*Microsecond-1 {
		t.Fatalf("RunUntil(5us-1) left %d pending at %v, want 4 (the 5us event and three holds) at 5us-1", e.Pending(), e.Now())
	}
	// Frames in flight are pending too, each of them.
	for i := 0; i < 3; i++ {
		e.Deliver(e.Now()+Time(i)*Nanosecond, 1, fnSink{}, nop)
	}
	if got := e.PendingHighWater(); got != 7 || e.Pending() != 7 {
		t.Fatalf("high water %d with %d pending after three deliveries, want 7 with 7", got, e.Pending())
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(Millisecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(Microsecond, func() {})
}

// Property: for any set of random timestamps, the engine fires them in
// nondecreasing time order and ends with the clock at the max timestamp.
func TestEngineOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		if len(stamps) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			at := Time(s) * Nanosecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := make([]Time, len(stamps))
		for i, s := range stamps {
			want[i] = Time(s) * Nanosecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset never fires the cancelled events
// and always fires exactly the rest.
func TestEngineCancelProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		total := int(n%64) + 1
		firedSet := make(map[int]bool)
		evs := make([]Timer, total)
		for i := 0; i < total; i++ {
			i := i
			evs[i] = e.At(Time(rng.Intn(1000))*Nanosecond, func() { firedSet[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < total; i++ {
			if cancelled[i] && firedSet[i] {
				return false
			}
			if !cancelled[i] && !firedSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRateExactness(t *testing.T) {
	cases := []struct {
		r    Rate
		want Time
	}{
		{400 * Gbps, 20 * Picosecond},
		{100 * Gbps, 80 * Picosecond},
		{40 * Gbps, 200 * Picosecond},
		{25 * Gbps, 320 * Picosecond},
		{10 * Gbps, 800 * Picosecond},
		{Gbps, 8 * Nanosecond},
	}
	for _, c := range cases {
		if got := c.r.PsPerByte(); got != c.want {
			t.Errorf("PsPerByte(%v) = %v, want %v", c.r, got, c.want)
		}
	}
	// A 1000-byte packet at 100 Gbps takes exactly 80 ns.
	if got := (100 * Gbps).TxTime(1000); got != 80*Nanosecond {
		t.Errorf("TxTime(1000 @100G) = %v, want 80ns", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{80 * Nanosecond, "80ns"},
		{12500 * Nanosecond, "12.5us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-5 * Microsecond, "-5us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRateString(t *testing.T) {
	if got := (100 * Gbps).String(); got != "100Gbps" {
		t.Errorf("got %q", got)
	}
	if got := (40 * Mbps).String(); got != "40Mbps" {
		t.Errorf("got %q", got)
	}
}

func TestNewRNGDeterminism(t *testing.T) {
	a := NewRNG(1, "hosts")
	b := NewRNG(1, "hosts")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed+tag produced different streams")
		}
	}
	c := NewRNG(1, "switches")
	d := NewRNG(2, "hosts")
	if a.Uint64() == c.Uint64() && a.Uint64() == d.Uint64() {
		t.Fatal("distinct tags/seeds produced identical streams (suspicious)")
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Nanosecond, func() {})
		e.Step()
	}
}

// The scheduler must not allocate at steady depth: a hold fills the
// hole its pop left, a cancel takes its slot back out of the heap or
// the far set, and fired events recycle through the free list.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	for i := 0; i < 512; i++ {
		e.After(Time(1+i)*Microsecond, nop)
	}
	spread := []Time{0, 3 * Nanosecond, 40 * Nanosecond, 2 * Microsecond, 800 * Microsecond}
	i := 0
	// after schedules one event through After or, keyed, through
	// AfterKey, the path workload arrivals take.
	after := func(keyed bool) Timer {
		d := spread[i%len(spread)]
		i++
		if keyed {
			return e.AfterKey(d, uint64(i%3), nop)
		}
		return e.After(d, nop)
	}
	hold := func(keyed bool) func() {
		return func() {
			for k := 0; k < 512; k++ {
				after(keyed)
				e.Step()
			}
		}
	}
	cancel := func(keyed bool) func() {
		return func() {
			for k := 0; k < 512; k++ {
				e.Cancel(after(keyed))
			}
		}
	}
	// farCancel arms a 1 ms retransmission backstop and cancels it: the
	// timer never leaves the far set.
	missed := 0
	farCancel := func() {
		for k := 0; k < 512; k++ {
			t := e.After(Millisecond, nop)
			if t.ev.index > -2 {
				missed++
			}
			e.Cancel(t)
		}
	}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"hold", hold(false)}, {"cancel", cancel(false)},
		{"hold/keyed", hold(true)}, {"cancel/keyed", cancel(true)},
		{"cancel/far", farCancel},
	} {
		c.op() // warm the free list and the heap array
		if n := testing.AllocsPerRun(20, c.op); n != 0 {
			t.Errorf("%s at depth %d allocates %v objects per 512 ops, want 0", c.name, e.Pending(), n)
		}
	}
	if missed > 0 {
		t.Errorf("%d 1 ms timers went to the heap, not the far set", missed)
	}

	// Deliveries: 512 frames in flight over a few offset classes ride the
	// lanes' rings; with every lane's tail parked in the far future they
	// fall back to pooled heap events. Neither allocates.
	for _, c := range []struct {
		name    string
		classes int
		park    bool
	}{{"deliver/classes=2", 2, false}, {"deliver/classes=6", 6, false}, {"deliver/off-lane", 2, true}} {
		e := NewEngine()
		if c.park {
			for j := Time(numLanes); j > 0; j-- {
				e.Deliver(Second+j, 1, fnSink{}, nop)
			}
		}
		hold := deliverHold(e, c.classes)
		op := func() {
			for k := 0; k < 512; k++ {
				hold()
			}
		}
		op()
		before := e.OffLane()
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Errorf("%s with %d pending allocates %v objects per 512 ops, want 0", c.name, e.Pending(), n)
		}
		if off := e.OffLane() - before; c.park != (off > 0) {
			t.Errorf("%s sent %d of %d deliveries through the heap", c.name, off, e.Delivered())
		}
	}
}

// classOffsets are a fabric's delivery delays: serialization plus
// propagation sums, one offset class each.
var classOffsets = []Time{600 * Nanosecond, 680 * Nanosecond, 1080 * Nanosecond, 1360 * Nanosecond, 1680 * Nanosecond, 2680 * Nanosecond}

// deliverHold puts 512 frames in flight on e, spread over the given
// number of offset classes, and returns the delivery hold: schedule one
// more delivery a class offset past the clock and fire the earliest
// pending event.
func deliverHold(e *Engine, classes int) func() {
	nop := func() {}
	offsets := classOffsets[:classes]
	for i := 0; i < 512; i++ {
		e.Deliver(e.Now()+Time(i)*Nanosecond+offsets[i%classes], uint64(1+i%classes), fnSink{}, nop)
	}
	i := 0
	return func() {
		e.Deliver(e.Now()+offsets[i%classes], uint64(1+i%classes), fnSink{}, nop)
		i++
		e.Step()
	}
}

// BenchmarkEngineDeliver is BenchmarkEngineHold for frames in flight:
// 512 pending deliveries over a stream's two offset classes or a
// fabric's six; each op schedules one more and fires the earliest.
func BenchmarkEngineDeliver(b *testing.B) {
	for _, classes := range []int{2, 6} {
		b.Run(fmt.Sprintf("classes=%d", classes), func(b *testing.B) {
			e := NewEngine()
			hold := deliverHold(e, classes)
			for i := 0; i < 512; i++ {
				hold() // grow the rings
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hold()
			}
			if e.OffLane() != 0 {
				b.Fatalf("%d deliveries left the lanes", e.OffLane())
			}
		})
	}
}

// coldSink reads the first byte of each frame it receives, the frame's
// offset class, and sends the frame round again that class's delay
// later.
type coldSink struct {
	e     *Engine
	delay []Time
}

func (s *coldSink) Arrive(arg any) {
	f := arg.(*[288]byte)
	c := f[0]
	s.e.Deliver(s.e.now+s.delay[c], uint64(1+c), s, f)
}

// BenchmarkEngineDeliverCold is BenchmarkEngineDeliver with a fabric's
// working set: 16 384 frames in flight over six offset classes, each a
// distinct 288-byte object (the size class of a frame with an INT stack)
// that its sink reads and sends round again. The frames take 4.7 MB,
// more than a server's L2, and fire in an order unrelated to their
// addresses, so a delivery's first touch misses unless the frame was
// fetched ahead of it.
func BenchmarkEngineDeliverCold(b *testing.B) {
	const inFlight = 1 << 14
	e := NewEngine()
	s := &coldSink{e: e}
	for _, off := range classOffsets {
		s.delay = append(s.delay, inFlight*Nanosecond+off)
	}
	frames := make([]*[288]byte, inFlight)
	for i := range frames {
		frames[i] = new([288]byte)
	}
	for i, j := range rand.New(rand.NewSource(1)).Perm(inFlight) {
		f := frames[j]
		f[0] = byte(i % len(classOffsets))
		e.Deliver(Time(i)*Nanosecond, uint64(1+f[0]), s, f)
	}
	for range inFlight {
		e.Step() // one round: claim the lanes, grow the rings
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if e.OffLane() != 0 || e.Pending() != inFlight {
		b.Fatalf("%d deliveries left the lanes, %d pending", e.OffLane(), e.Pending())
	}
}

// recSink records every delivery's argument.
type recSink struct{ got []any }

func (r *recSink) Arrive(arg any) { r.got = append(r.got, arg) }

// The engine reads a new lane head's interface words before it fires:
// nil and non-pointer arguments, with enough frames in flight that the
// first half of the pops prefetch, still fire in order and arrive intact.
func TestDeliverOddArgs(t *testing.T) {
	e := NewEngine()
	r := &recSink{}
	args := []any{nil, 7, "x", 2.5, new(int), struct{ a, b int }{1, 2}, byte(0), fnSink{}}
	// Two interleaved lanes: even nanoseconds on the first, odd on the
	// second, so the frame at k+1 ns carries args[k % len(args)].
	const n = prefetchDepth
	for _, odd := range []int{0, 1} {
		for k := 1 - odd; k < 2*n; k += 2 {
			e.Deliver(Time(k+1)*Nanosecond, 1, r, args[k%len(args)])
		}
	}
	if e.used != 2 || e.Pending() != 2*n {
		t.Fatalf("%d deliveries pending on %d lanes, want %d on 2", e.Pending(), e.used, 2*n)
	}
	e.Run()
	if len(r.got) != 2*n {
		t.Fatalf("%d of %d deliveries arrived", len(r.got), 2*n)
	}
	for k, got := range r.got {
		if want := args[k%len(args)]; !reflect.DeepEqual(got, want) {
			t.Fatalf("delivery %d carried %v, want %v", k, got, want)
		}
	}
}

// ifaceData must read the pointer an interface holds, for an any and
// for a method interface alike, and nil from a nil interface; a Go
// release that changes the interface layout fails here.
func TestIfaceData(t *testing.T) {
	r := &recSink{}
	var a any = r
	var s Sink = r
	var none any
	if got, want := ifaceData(unsafe.Pointer(&a)), reflect.ValueOf(a).UnsafePointer(); got != want {
		t.Errorf("ifaceData(any) = %p, want %p", got, want)
	}
	if got, want := ifaceData(unsafe.Pointer(&s)), reflect.ValueOf(s).UnsafePointer(); got != want {
		t.Errorf("ifaceData(Sink) = %p, want %p", got, want)
	}
	if got := ifaceData(unsafe.Pointer(&none)); got != nil {
		t.Errorf("ifaceData(nil any) = %p, want nil", got)
	}
}
