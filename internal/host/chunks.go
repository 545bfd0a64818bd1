package host

import "hpcc/internal/packet"

// chunkSet marks chunks of one transfer: bit k is the chunk at k·MTU.
// Chunks are MTU-aligned and only the last is shorter, so a chunk's
// first byte names it. The sender marks what selective ACKs report, the
// receiver what it buffered out of order; a recycled flow or QP keeps
// the backing array.
type chunkSet []uint64

// add marks the chunk starting at seq.
func (s *chunkSet) add(seq int64) {
	k := seq / packet.DefaultMTU
	for int64(len(*s)) <= k/64 {
		*s = append(*s, 0)
	}
	(*s)[k/64] |= 1 << (k % 64)
}

// has reports whether the chunk starting at seq is marked.
func (s chunkSet) has(seq int64) bool {
	k := seq / packet.DefaultMTU
	return k/64 < int64(len(s)) && s[k/64]&(1<<(k%64)) != 0
}
