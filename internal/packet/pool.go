package packet

// Pool is a free list of Packet structs. A plain Packet is 80 bytes (the
// 80-byte size class); a frame that carries INT is allocated by GetINT
// as one 288-byte object holding the Packet and, beside it, the INT
// stack its INT field points at. The simulator used to heap-allocate one
// frame per data packet *and* per ACK; recycling them at the terminal
// consumption points (host ACK processing, switch drops, PFC
// consumption) makes the per-packet hot path allocation-free in steady
// state.
//
// A frame never gains or loses its stack, so the pool keeps two free
// lists and Put files each frame on the one it came from.
//
// A Pool belongs to one simulated network (hosts and switches built by
// a topology.Builder share one); the whole world runs on a single
// goroutine, so there is no locking and recycling order is
// deterministic. Get and GetINT return zeroed packets; Put does not
// scrub, so a frame already handed to tracing/tests stays readable until
// reuse.
type Pool struct {
	free, freeINT []*Packet

	gets, news, puts uint64
}

// maxPoolFree bounds each free list (at 4096: ≈ 0.3 MB of plain frames,
// ≈ 1.2 MB of stacked ones); beyond it, Put lets packets go to the
// garbage collector. This keeps lossy scenarios — where drops strand
// packets at switch pools — from accumulating unbounded free lists.
const maxPoolFree = 4096

// stacked is the single allocation behind a GetINT frame: the INT stack
// sits right after the Packet, so the two share cache lines and cost one
// allocation.
type stacked struct {
	p   Packet
	int INTHeader
}

func newStacked() *Packet {
	s := &stacked{}
	s.p.INT = &s.int
	return &s.p
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet with no INT stack, recycling a freed one
// when available.
func (pl *Pool) Get() *Packet {
	pl.gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*p = Packet{}
		return p
	}
	pl.news++
	// A miss warms the free list once; the steady state recycles
	// (TestSteadyStateAllocsPerPacketUnderBudget).
	return &Packet{}
}

// GetINT returns a zeroed packet whose INT field points at an empty
// stack, recycling a freed one when available. Only NHops and PathID are
// reset: Records never reads a hop slot at or beyond NHops, so stale
// slots need no scrubbing.
func (pl *Pool) GetINT() *Packet {
	pl.gets++
	if n := len(pl.freeINT); n > 0 {
		p := pl.freeINT[n-1]
		pl.freeINT[n-1] = nil
		pl.freeINT = pl.freeINT[:n-1]
		h := p.INT
		*p = Packet{INT: h}
		h.NHops, h.PathID = 0, 0
		return p
	}
	pl.news++
	return newStacked()
}

// Put recycles a packet the simulation has fully consumed onto the free
// list matching whether it carries an INT stack. The caller must not
// touch p afterwards.
func (pl *Pool) Put(p *Packet) {
	pl.puts++
	free := &pl.free
	if p.INT != nil {
		free = &pl.freeINT
	}
	if len(*free) < maxPoolFree {
		*free = append(*free, p)
	}
}

// Recycled returns how many Gets were served from the free list (for
// tests and diagnostics).
func (pl *Pool) Recycled() uint64 { return pl.gets - pl.news }

// Allocated returns how many Gets fell through to the heap.
func (pl *Pool) Allocated() uint64 { return pl.news }
