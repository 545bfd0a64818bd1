package host

import "fmt"

// AuditFreeLists checks that nothing on a free list is still reachable
// as simulation state: a recycled *Flow or QPN handed out twice, or one
// a live structure still points to, would let one transfer scribble
// over another. Every QPN but 0 is either bound or free, never both; a
// bound sender QP's flow names its own slot; and a receive QP is freed
// when its flow finishes.
func (h *Host) AuditFreeLists() error {
	held := make(map[*Flow]int)
	for qp, f := range h.sendQP {
		if f == nil {
			continue
		}
		if f.qp != int32(qp) {
			return fmt.Errorf("host %d: flow %d sits in sender QP %d but names QP %d", h.id, f.ID, qp, f.qp)
		}
		held[f] = qp
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
		case held[f] != 0:
			return fmt.Errorf("host %d: free flow %d is still bound to sender QP %d", h.id, f.ID, held[f])
		}
		free[f] = true
	}
	if err := auditQPs("sender", len(h.sendQP), h.sendFree, func(qp int) bool { return h.sendQP[qp] != nil }); err != nil {
		return fmt.Errorf("host %d: %v", h.id, err)
	}
	if err := auditQPs("receive", len(h.recv), h.recvFree, func(qp int) bool { return h.recv[qp].flowID != 0 }); err != nil {
		return fmt.Errorf("host %d: %v", h.id, err)
	}
	for qp := 1; qp < len(h.recv); qp++ {
		if rs := &h.recv[qp]; rs.flowID != 0 && rs.finished() {
			return fmt.Errorf("host %d: finished receive QP %d (flow %d) is still bound", h.id, qp, rs.flowID)
		}
	}
	return nil
}

// auditQPs checks that QPN 0 is neither bound nor free and that every
// other QPN below n is exactly one of the two.
func auditQPs(kind string, n int, free []int32, bound func(qp int) bool) error {
	if bound(0) {
		return fmt.Errorf("%s QPN 0 is bound", kind)
	}
	onFree := make([]bool, n)
	for _, qp := range free {
		switch {
		case qp <= 0 || int(qp) >= n:
			return fmt.Errorf("%s QPN %d on the free list was never issued", kind, qp)
		case onFree[qp]:
			return fmt.Errorf("%s QPN %d is on the free list twice", kind, qp)
		case bound(int(qp)):
			return fmt.Errorf("%s QPN %d is both free and bound", kind, qp)
		}
		onFree[qp] = true
	}
	for qp := 1; qp < n; qp++ {
		if !onFree[qp] && !bound(qp) {
			return fmt.Errorf("%s QPN %d is neither bound nor free", kind, qp)
		}
	}
	return nil
}

// OpenRecvQPs returns how many receive QPs are bound to a flow.
func (h *Host) OpenRecvQPs() int {
	n := 0
	for qp := 1; qp < len(h.recv); qp++ {
		if h.recv[qp].flowID != 0 {
			n++
		}
	}
	return n
}

// FlowObjects returns how many *Flow the host holds, bound or free.
// Every flow it ever allocated is one of them (bar pinned or aborted
// evictions), so started flows / FlowObjects is the mean reuse count.
func (h *Host) FlowObjects() int {
	n := len(h.flowFree)
	for _, f := range h.sendQP {
		if f != nil {
			n++
		}
	}
	return n
}
