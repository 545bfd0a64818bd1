package packet

import "hpcc/internal/sim"

// Pool is a free list of Packet structs. A plain Packet is 72 bytes; a
// frame that carries INT comes from GetINT as one 288-byte stacked
// value holding the Packet and, beside it, the INT stack its INT field
// points at. Frames are recycled at their terminal consumption points
// (host ACK processing, switch drops, PFC consumption), so the
// per-packet hot path allocates nothing in steady state.
//
// A frame never gains or loses its stack, so the pool keeps two free
// lists, linked through the frames as a Queue is, and Put files each
// frame on the one it came from. A miss on a list carves a new frame
// out of that kind's current chunk (see sim.Chunks): chunks grow from 8
// frames to 256 plain or 128 stacked ones, so a deep-queued fabric
// warms its pool a few hundred frames per allocation and a small test
// or star cell reserves only a few dozen.
//
// The free lists have no cap. A Pool belongs to one simulated network —
// topology.Builder hands one to every host and switch it builds — so a
// list can never hold more frames than the pool itself carved, and its
// length is bounded by the most frames the network ever had in flight
// at once. A frame let go from a list would free no memory anyway: its
// chunk stays alive while any frame carved from it is. After a run
// drains, the lists hold every frame the pool allocated, and a frame
// Put twice counts twice (TestPoolRecoversEveryFrame).
//
// The whole world runs on a single goroutine, so there is no locking
// and recycling order is deterministic. Get and GetINT return zeroed
// packets; Put does not scrub, so a frame already handed to tracing or
// tests stays readable until reuse.
type Pool struct {
	free, freeINT *Packet // list heads, linked through Packet.next
	plain         sim.Chunks[Packet]
	stacks        sim.Chunks[stacked]

	gets, news, puts uint64
}

// Chunk bounds: 256 plain frames or 128 stacked ones, about 18 and 36 KB.
const (
	plainChunk   = 256
	stackedChunk = 128
)

// stacked is the value behind a GetINT frame: the INT stack sits right
// after the Packet, so the two share cache lines and one chunk slot.
// The pad takes the 280 bytes to 288, 4.5 cache lines, so every frame
// in a chunk starts 32-byte aligned; unpadded, the paper FatTree
// benchmark ran 1.3 % slower (2-vCPU Xeon, go1.24).
type stacked struct {
	p   Packet
	int INTHeader
	_   [8]byte
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet with no INT stack, recycling a freed one
// when available.
func (pl *Pool) Get() *Packet {
	pl.gets++
	if p := pl.free; p != nil {
		pl.free = p.next
		*p = Packet{}
		return p
	}
	pl.news++
	// A miss warms the free list once; the steady state recycles
	// (TestSteadyStateAllocsPerPacketUnderBudget).
	return pl.plain.Take(plainChunk)
}

// GetINT returns a zeroed packet whose INT field points at an empty
// stack, recycling a freed one when available. Only NHops and PathID are
// reset: Records never reads a hop slot at or beyond NHops, so stale
// slots need no scrubbing.
func (pl *Pool) GetINT() *Packet {
	pl.gets++
	if p := pl.freeINT; p != nil {
		pl.freeINT = p.next
		h := p.INT
		*p = Packet{INT: h}
		h.NHops, h.PathID = 0, 0
		return p
	}
	pl.news++
	s := pl.stacks.Take(stackedChunk)
	s.p.INT = &s.int
	return &s.p
}

// Put recycles a packet the simulation has fully consumed onto the free
// list matching whether it carries an INT stack. The caller must not
// touch p afterwards.
func (pl *Pool) Put(p *Packet) {
	pl.puts++
	if p.INT != nil {
		p.next, pl.freeINT = pl.freeINT, p
	} else {
		p.next, pl.free = pl.free, p
	}
}

// Recycled returns how many Gets were served from the free list (for
// tests and diagnostics).
func (pl *Pool) Recycled() uint64 { return pl.gets - pl.news }

// Allocated returns how many Gets found their free list empty and
// carved a new frame.
func (pl *Pool) Allocated() uint64 { return pl.news }

// Free returns how many frames wait on the free lists: every frame
// carved or Put, less every Get.
func (pl *Pool) Free() uint64 { return pl.news + pl.puts - pl.gets }
