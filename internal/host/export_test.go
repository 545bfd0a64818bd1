package host

import "fmt"

// AuditFreeLists checks that nothing on a free list is still reachable
// as simulation state: a recycled *Flow or *recvState handed out twice,
// or one a live structure still points to, would let one transfer
// scribble over another.
func (h *Host) AuditFreeLists() error {
	held := make(map[*Flow]string)
	for _, f := range h.flows {
		held[f] = "flows"
	}
	free := make(map[*Flow]bool)
	for _, f := range h.flowFree {
		switch {
		case free[f]:
			return fmt.Errorf("host %d: flow %d is on the free list twice", h.id, f.ID)
		case f.pinned:
			return fmt.Errorf("host %d: pinned flow %d is on the free list", h.id, f.ID)
		case !f.done || f.alive:
			return fmt.Errorf("host %d: unfinished flow %d is on the free list", h.id, f.ID)
		case held[f] != "":
			return fmt.Errorf("host %d: free flow %d is still in %s", h.id, f.ID, held[f])
		}
		free[f] = true
	}
	inUse := make(map[*recvState]bool)
	for _, rs := range h.recv {
		inUse[rs] = true
	}
	for _, rs := range h.recvFree {
		if inUse[rs] {
			return fmt.Errorf("host %d: a recvState is both free and in use (or free twice)", h.id)
		}
		inUse[rs] = true
	}
	return nil
}

// FlowObjects returns how many *Flow the host holds, retained or free.
// Every flow it ever allocated is one of them (bar pinned or aborted
// evictions), so started flows / FlowObjects is the mean reuse count.
func (h *Host) FlowObjects() int { return len(h.flows) + len(h.flowFree) }
