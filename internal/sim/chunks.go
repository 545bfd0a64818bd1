package sim

// Chunks hands out zeroed values of T carved from slices. The first
// slice holds 8 values and each later one twice the last, up to the
// limit Take is given, so a free list that warms up to n objects costs
// about log2(limit) + n/limit allocations instead of n, and a world that
// needs only a few objects reserves only a few. Nothing carved is ever
// given back: a chunk lives while any value in it is reachable, so
// Chunks suits objects that a free list recycles for the life of their
// world — the engine's events and a network's frames.
type Chunks[T any] struct {
	buf  []T // the current chunk's uncarved tail
	size int // the current chunk's length
}

// Take returns a pointer to a zero T, starting a new chunk of at most
// limit values when the current one is used up.
func (c *Chunks[T]) Take(limit int) *T {
	if len(c.buf) == 0 {
		c.size = min(max(2*c.size, 8), limit)
		c.buf = make([]T, c.size)
	}
	v := &c.buf[0]
	c.buf = c.buf[1:]
	return v
}
