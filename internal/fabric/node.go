// Package fabric models the network data plane: duplex links, egress
// ports, and shared-buffer switches implementing WRED/ECN marking,
// dynamic-threshold PFC, ECMP routing and INT stamping at dequeue — the
// full substrate the HPCC paper's evaluation runs on.
//
// Frames travel in two traffic classes, and a frame's class is its
// type. Data frames (packet.Data) form the lossless data class: PFC
// pauses it, switches charge it to the shared buffer, ECN-mark it and
// stamp INT into it. Every other frame — ACK, NACK, CNP, PFC and RDMA
// READ requests — rides the control class, a queue each port serves
// ahead of data that is never paused, buffered against the shared
// buffer, marked or stamped. The split matches production RoCE
// deployments, where ACKs travel on a dedicated class.
package fabric

import (
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// NodeID identifies a node (host or switch) network-wide.
type NodeID int32

// Node is anything attachable to a link: switches and hosts.
type Node interface {
	// ID returns the network-wide node identifier.
	ID() NodeID
	// HandleArrival is called when a packet has fully arrived over the
	// link whose local (reverse-direction) port is in.
	HandleArrival(p *packet.Packet, in *Port)
	// OnDequeue is called at the instant a packet is dequeued from one
	// of the node's own ports and starts serializing. ingress is the
	// port index the packet arrived on, or -1 for locally generated
	// packets. Switches use this hook for buffer release, PFC resume
	// checks and INT stamping.
	OnDequeue(p *packet.Packet, ingress int, from *Port)
}

// Connect wires a full-duplex link between nodes a and b with the given
// rate and one-way propagation delay, returning the two directional
// ports (a's transmitter and b's transmitter). Port indices are the
// caller's concern: they must equal the position of the returned port in
// each node's port list for switch ingress accounting to work.
func Connect(eng *sim.Engine, a, b Node, aIdx, bIdx int, rate sim.Rate, delay sim.Time) (ab, ba *Port) {
	ab = newPort(eng, a, aIdx, rate, delay)
	ba = newPort(eng, b, bIdx, rate, delay)
	ab.peer, ab.peerPort = b, ba
	ba.peer, ba.peerPort = a, ab
	return ab, ba
}
