package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// SyncStats counts synchronization work done by one ShardGroup run.
type SyncStats struct {
	// Epochs is the number of lookahead epochs executed.
	Epochs uint64
	// WorkNS is wall time spent with the engines running concurrently;
	// TotalNS is the whole RunUntil. The difference is single-threaded
	// synchronization: barriers and exchanges.
	WorkNS  int64
	TotalNS int64
}

// SyncOverhead is the fraction of wall time not spent running engines.
func (s SyncStats) SyncOverhead() float64 {
	if s.TotalNS <= 0 {
		return 0
	}
	return float64(s.TotalNS-s.WorkNS) / float64(s.TotalNS)
}

// ShardGroup runs several engines in lockstep epochs separated by
// conservative lookahead barriers — the classic conservative
// parallel-DES scheme: every epoch [T, T+L) is executed concurrently
// (one goroutine per engine); at the epoch barrier the group calls
// Exchange, which moves cross-shard traffic between engines
// single-threaded. The scheme is sound when every cross-shard
// interaction initiated during an epoch takes effect at least Lookahead
// later — for a network partition, the minimum propagation delay of
// the links that cross shards.
//
// Determinism: each engine fires its own events in canonical order
// exactly as it would alone, and Exchange injects cross-shard events in
// a caller-fixed order at every barrier. A ShardGroup run is therefore
// a pure function of its inputs — independent of goroutine scheduling —
// and byte-identical to the serial run.
type ShardGroup struct {
	Engines   []*Engine
	Lookahead Time
	// Exchange, if set, runs at every epoch boundary (single-threaded,
	// all engines parked at time now) and moves cross-shard work into
	// the destination engines.
	Exchange func(now Time)

	// Stats is reset and refilled by each RunUntil.
	Stats SyncStats
}

type opKind uint8

const (
	opRunBefore opKind = iota
	opRunUntil
)

type shardOp struct {
	kind  opKind
	until Time
}

// shardWorkers fans one op out to every engine's goroutine and waits
// for all of them — the only synchronization primitive of the group.
type shardWorkers struct {
	wg   sync.WaitGroup
	cmds []chan shardOp
}

func (w *shardWorkers) do(op shardOp) {
	w.wg.Add(len(w.cmds))
	for _, ch := range w.cmds {
		ch <- op
	}
	w.wg.Wait()
}

// run fans out an engine-run op and accounts its wall time as
// concurrent work.
func (g *ShardGroup) run(w *shardWorkers, op shardOp) {
	t0 := time.Now() //hpcclint:allow determinism -- wall-clock metering for SyncStats overhead accounting; never feeds back into simulated state
	w.do(op)
	g.Stats.WorkNS += time.Since(t0).Nanoseconds() //hpcclint:allow determinism -- wall-clock metering for SyncStats overhead accounting; never feeds back into simulated state
}

// RunUntil advances every engine to the deadline in lookahead epochs.
// Epochs are event-driven: when all engines are idle until some later
// time, the group skips ahead (still conservatively: an epoch never
// extends past earliest-pending-event + Lookahead). A misconfigured
// group — no engines, nil or duplicated engines, a non-positive
// Lookahead — is reported as an error before any engine runs, and that
// is the only error: a panic on a worker goroutine is not recovered and
// terminates the process.
func (g *ShardGroup) RunUntil(deadline Time) error {
	g.Stats = SyncStats{}
	if len(g.Engines) == 0 {
		return errors.New("sim: ShardGroup has no engines")
	}
	for i, e := range g.Engines {
		if e == nil {
			return fmt.Errorf("sim: ShardGroup engine %d is nil", i)
		}
		for j := i + 1; j < len(g.Engines); j++ {
			if g.Engines[j] == e {
				return fmt.Errorf("sim: ShardGroup engines %d and %d are the same engine", i, j)
			}
		}
	}
	if len(g.Engines) == 1 {
		g.Engines[0].RunUntil(deadline)
		if g.Exchange != nil {
			g.Exchange(deadline)
		}
		return nil
	}
	if g.Lookahead <= 0 {
		return fmt.Errorf("sim: ShardGroup needs a positive Lookahead, got %d", g.Lookahead)
	}

	start := time.Now() //hpcclint:allow determinism -- wall-clock metering for SyncStats overhead accounting; never feeds back into simulated state
	defer func() { g.Stats.TotalNS = time.Since(start).Nanoseconds() }()

	w := &shardWorkers{cmds: make([]chan shardOp, len(g.Engines))}
	for i, e := range g.Engines {
		ch := make(chan shardOp, 1)
		w.cmds[i] = ch
		//hpcclint:allow determinism -- one long-lived worker per engine; the barrier protocol serializes all cross-engine effects
		go func(e *Engine, ch chan shardOp) {
			for m := range ch {
				switch m.kind {
				case opRunBefore:
					e.RunBefore(m.until)
				case opRunUntil:
					e.RunUntil(m.until)
				}
				w.wg.Done()
			}
		}(e, ch)
	}
	defer func() {
		for _, ch := range w.cmds {
			close(ch)
		}
	}()

	g.runConservative(w, deadline)
	return nil
}

// nextEpoch computes the event-driven conservative epoch end: nothing
// can cross a shard boundary earlier than the group's earliest pending
// event plus the lookahead. final means the epoch reaches the deadline
// and must run inclusive.
func (g *ShardGroup) nextEpoch(now, deadline Time) (next Time, final bool) {
	next = deadline
	for _, e := range g.Engines {
		if h, ok := e.PeekTime(); ok && h+g.Lookahead < next {
			next = h + g.Lookahead
		}
	}
	if next < now+g.Lookahead {
		next = now + g.Lookahead
	}
	if next >= deadline {
		return deadline, true
	}
	return next, false
}

// runConservative runs exclusive epochs with an exchange at every
// barrier, then one final inclusive epoch at the deadline.
func (g *ShardGroup) runConservative(w *shardWorkers, deadline Time) {
	now := g.Engines[0].Now()
	for {
		next, final := g.nextEpoch(now, deadline)
		g.Stats.Epochs++
		if final {
			g.run(w, shardOp{kind: opRunUntil, until: next})
		} else {
			g.run(w, shardOp{kind: opRunBefore, until: next})
		}
		if g.Exchange != nil {
			g.Exchange(next)
		}
		if final {
			return
		}
		now = next
	}
}
