package packet

// MaxPorts is the most ports a node may have: a Queue keeps a frame's
// ingress port index in 16 bits.
const MaxPorts = 1<<15 - 1

// Queue is a FIFO of frames linked through the frames themselves, so it
// never allocates, however deep it gets. A frame sits in at most one
// Queue or Pool free list at a time. The zero Queue is empty.
type Queue struct {
	head, tail *Packet
	n          int
}

// Push appends p with the port index it arrived on: -1 if generated
// locally, else at most MaxPorts.
func (q *Queue) Push(p *Packet, ingress int) {
	p.ingress = int16(ingress)
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.n++
}

// Pop removes the oldest frame, which must exist, and returns it
// unlinked with the ingress it was pushed with.
func (q *Queue) Pop() (*Packet, int) {
	p := q.head
	q.head, p.next = p.next, nil
	if q.head == nil {
		q.tail = nil
	}
	q.n--
	return p, int(p.ingress)
}

// Len returns how many frames are queued.
func (q *Queue) Len() int { return q.n }
