package sim

import "unsafe"

// Sink receives the deliveries scheduled with Engine.Deliver.
type Sink interface {
	// Arrive is called at the delivery's time with the argument given to
	// Deliver.
	Arrive(arg any)
}

// numLanes is how many monotone runs of deliveries the engine keeps
// beside the heap. A delivery fires at the clock plus a link's
// serialization and propagation time; a fabric has a handful of such
// sums, and deliveries that share one are scheduled in firing order.
const numLanes = 8

// prefetchDepth is how many frames must be in flight before next
// prefetches a lane's new head. Fewer stay in cache, where a prefetch
// only costs (stream-flows-4m, ≤ 320 in flight, ran 3–11 % slower).
const prefetchDepth = 512

// frame is one pending delivery with its canonical rank inline.
type frame struct {
	rank
	sink Sink
	arg  any
}

// lane is a FIFO ring of frames whose (time, key, seq) ranks are
// nondecreasing head to tail, so its head is its minimum. It stays
// sorted because Engine.Deliver only appends a frame to a lane whose
// tail does not fire later than it, and push settles equal-time tails.
type lane struct {
	buf  []frame // ring; len is zero or a power of two
	head int     // slot of the earliest frame
	n    int     // frames queued
}

// ifaceData returns the data word of the interface value at p, an any or
// a method interface such as Sink: both are two words, the type or itab
// first, then the data word — the pointer itself when the dynamic type
// is a pointer. This is the one place that assumes that layout
// (TestIfaceData pins it).
func ifaceData(p unsafe.Pointer) unsafe.Pointer { return (*[2]unsafe.Pointer)(p)[1] }

// front returns the earliest frame of a nonempty lane, in place.
func (l *lane) front() *frame { return &l.buf[l.head] }

// push appends a delivery whose time is not before the tail's and
// reports whether it became the lane's head. A frame that shares the
// tail's time but carries a smaller key belongs before it: it is walked
// back past the equal-time frames with larger keys (seq is the engine's
// running counter, so among equal keys the newcomer is already last).
func (l *lane) push(at Time, key, seq uint64, sink Sink, arg any) bool {
	if l.n == len(l.buf) {
		l.grow()
	}
	mask := len(l.buf) - 1
	k := l.n
	for k > 0 {
		p := &l.buf[(l.head+k-1)&mask]
		if p.at != at || p.key <= key {
			break
		}
		l.buf[(l.head+k)&mask] = *p
		k--
	}
	f := &l.buf[(l.head+k)&mask]
	f.at, f.key, f.seq, f.sink, f.arg = at, key, seq, sink, arg
	l.n++
	return k == 0
}

// pop drops the head frame, which the caller has read in place. A lane
// that drains restarts at slot 0, so a lightly used lane keeps touching
// the same few cache lines instead of cycling through its whole ring.
func (l *lane) pop() {
	f := &l.buf[l.head]
	f.sink, f.arg = nil, nil
	l.n--
	if l.n == 0 {
		l.head = 0
	} else {
		l.head = (l.head + 1) & (len(l.buf) - 1)
	}
}

// grow doubles a full ring, moving the head to slot 0.
func (l *lane) grow() {
	buf := make([]frame, max(2*len(l.buf), 32))
	n := copy(buf, l.buf[l.head:])
	copy(buf[n:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// Deliver schedules sink.Arrive(arg) at absolute time at under canonical
// key — what AtKey is to a callback, for events that are never
// cancelled and whose times mostly ascend: a frame reaching the far end
// of a link. Such events stay out of the heap. The delivery joins the
// lane whose tail fires latest without firing after it (best fit over
// the lanes claimed so far, a fresh lane when none fits); only with
// every lane claimed and none fitting does it become an ordinary heap
// event. The firing order is the canonical rank either way — see next.
func (e *Engine) Deliver(at Time, key uint64, sink Sink, arg any) {
	if at < e.now {
		panic("sim: delivery scheduled in the past")
	}
	seq := e.seq
	e.seq++
	e.delivered++
	best, bestTail := -1, Time(-1)
	for i, t := range e.tails[:e.used] {
		if t <= at && t > bestTail {
			best, bestTail = i, t
		}
	}
	if best < 0 {
		if e.used == numLanes {
			e.offLane++
			ev := e.newEvent(at, key, seq)
			ev.sink, ev.arg = sink, arg
			if at < e.farB {
				e.q.push(ev)
			} else {
				e.farPush(ev)
			}
			e.notePending()
			return
		}
		best = e.used
		e.used++
	}
	e.tails[best] = at
	e.inFlight++
	e.notePending()
	if !e.lanes[best].push(at, key, seq, sink, arg) {
		return
	}
	// A new lane head: it may now be the earliest delivery.
	if e.inFlight == 1 {
		e.cur = best
	} else if c := e.cur; c >= 0 && c != best && e.lanes[best].front().before(&e.lanes[c].front().rank) {
		e.cur = best
	}
}

// minLane returns the lane whose head ranks first among all lanes, or
// -1 when no delivery is in flight. The answer is cached in cur: a heap
// event that schedules nothing onto an empty lane leaves it valid, so
// only a lane pop forces a rescan — of the claimed lanes alone.
func (e *Engine) minLane() int {
	if e.inFlight == 0 {
		return -1
	}
	if e.cur >= 0 {
		return e.cur
	}
	m := -1
	var mf *frame
	for i := 0; i < e.used; i++ {
		l := &e.lanes[i]
		if l.n == 0 {
			continue
		}
		if f := l.front(); m < 0 || f.before(&mf.rank) {
			m, mf = i, f
		}
	}
	e.cur = m
	return m
}

// next fires the earliest pending event if it is due by last: the
// earliest lane head or the heap root, whichever ranks first under the
// one canonical (time, key, seq) order. Every lane is sorted and the
// heap yields its minimum, so the minimum over lane heads and root is
// the minimum of lanes and heap. Far events are all due at or after
// farB, so a candidate due by the horizon is the minimum of the whole
// pending set; past it, pastLimit may bring far events into the heap
// and choose again. Where an event waited never shows in the order.
func (e *Engine) next(last Time) bool {
	lim := min(last, e.horizon)
	if i := e.minLane(); i >= 0 {
		l := &e.lanes[i]
		root := e.q.min()
		if f := l.front(); root == nil || f.before(&root.rank) {
			if f.at > lim {
				return e.pastLimit(f.at, last)
			}
			e.now = f.at
			sink, arg := f.sink, f.arg
			l.pop()
			if l.n > 0 && e.inFlight > prefetchDepth {
				// The new head fires only after the other lanes' heads
				// ahead of it, so its first-touch misses (on a fabric, the
				// packet and the port it left) overlap their work.
				h := l.front()
				prefetch2(ifaceData(unsafe.Pointer(&h.arg)), ifaceData(unsafe.Pointer(&h.sink)))
			}
			e.inFlight--
			e.cur = -1
			e.fired++
			sink.Arrive(arg)
			return true
		}
	}
	ev := e.q.popThrough(lim)
	if ev == nil {
		at := maxTime
		if root := e.q.min(); root != nil {
			at = root.at
		}
		return e.pastLimit(at, last)
	}
	e.fire(ev)
	return true
}

// pastLimit decides for next about a candidate due at at, maxTime for
// none, that is past last or the horizon. Due by the horizon, it is the
// earliest pending event, so nothing is due by last; past it, far events
// may come first, but not by last if the horizon reaches last. Otherwise
// migrate brings them in and the choice is made again.
func (e *Engine) pastLimit(at, last Time) bool {
	if at <= e.horizon || e.horizon >= last {
		return false
	}
	e.migrate(at)
	return e.next(last)
}
