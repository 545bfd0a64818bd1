// Package topology is an eventkey-analyzer fixture: its import path is
// in the delivery scope, so unkeyed Engine.At/After calls are flagged.
package topology

import "hpcc/internal/sim"

type node struct {
	eng *sim.Engine
	key sim.EventKey
}

func (n *node) deliver(t sim.Time, fn func()) {
	n.eng.At(t, fn) // want `unkeyed Engine\.At on a delivery/arrival path`
}

func (n *node) arrive(d sim.Time, fn func()) {
	n.eng.After(d, fn) // want `unkeyed Engine\.After on a delivery/arrival path`
}

// deliverKeyed uses the canonical-rank variant: not flagged.
func (n *node) deliverKeyed(t sim.Time, fn func()) {
	n.eng.AtKey(t, n.key, fn)
}

func (n *node) arriveKeyed(d sim.Time, fn func()) {
	n.eng.AfterKey(d, n.key, fn)
}

func (n *node) Arrive(arg any) {}

// deliverFrame schedules a wire delivery through Engine.Deliver, which
// takes the canonical key like AtKey: not flagged. The unkeyed timer
// beside it on the same path still is.
func (n *node) deliverFrame(t sim.Time, fn func()) {
	n.eng.Deliver(t, n.key, n, nil)
	n.eng.At(t, fn) // want `unkeyed Engine\.At on a delivery/arrival path`
}

func (n *node) localTimer(d sim.Time, fn func()) {
	n.eng.After(d, fn) //hpcclint:allow eventkey -- engine-local timer, ties cannot span shards
}

// deferred schedules through a helper that hides the unkeyed call one
// package away: the imported summary flags the call site with the chain.
func (n *node) deferred(d sim.Time, fn func()) {
	sim.Defer(n.eng, d, fn) // want `call to sim\.Defer schedules through unkeyed Engine\.At/After.*\[chain: sim\.Defer → Engine\.After\]`
}
