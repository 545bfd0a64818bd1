package packet

// Pool is a free list of Packet structs. A Packet is 424 bytes, allocated
// in the 448-byte size class (the inline 8-hop INT array is 320 of
// them), and the simulator used to
// heap-allocate one per data packet *and* per ACK; recycling them at
// the terminal consumption points (host ACK processing, switch drops,
// PFC consumption) makes the per-packet hot path allocation-free in
// steady state.
//
// A Pool belongs to one simulated network (hosts and switches built by
// a topology.Builder share one); the whole world runs on a single
// goroutine, so there is no locking and recycling order is
// deterministic. Get returns a zeroed packet; Put does not scrub, so a
// frame already handed to tracing/tests stays readable until reuse.
type Pool struct {
	free []*Packet

	gets, news, puts uint64
}

// maxPoolFree bounds retained free packets (≈ 1.8 MB at 4096); beyond
// it, Put lets packets go to the garbage collector. This keeps lossy
// scenarios — where drops strand packets at switch pools — from
// accumulating unbounded free lists.
const maxPoolFree = 4096

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet, recycling a freed one when available.
// A nil pool degrades to plain allocation.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{} // only tests run without a pool
	}
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

// Put recycles a packet the simulation has fully consumed. The caller
// must not touch p afterwards. Nil pool and nil packet are no-ops.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	pl.puts++
	if len(pl.free) < maxPoolFree {
		pl.free = append(pl.free, p)
	}
}

// Recycled returns how many Gets were served from the free list (for
// tests and diagnostics).
func (pl *Pool) Recycled() uint64 { return pl.gets - pl.news }

// Allocated returns how many Gets fell through to the heap.
func (pl *Pool) Allocated() uint64 { return pl.news }
