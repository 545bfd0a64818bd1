package host

import (
	"testing"

	"hpcc/internal/fabric"
	"hpcc/internal/sim"
)

func TestRDMARead(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	done := false
	// Host 0 reads 500 KB from host 1: the data flows 1 -> 0.
	nw.hosts[0].Read(1, nw.hosts[1], 500_000, 0, func() { done = true })
	nw.run(t)
	if !done {
		t.Fatal("READ completion never fired at the requester")
	}
	// The responder owns the data flow.
	f := nw.hosts[1].Flows()[1]
	if f == nil || !f.Done() {
		t.Fatal("responder flow missing or unfinished")
	}
	if got := f.Acked(); got != 500_000 {
		t.Fatalf("responder streamed %d acked bytes, want 500000", got)
	}
	// The requester's receive QP was freed once the stream landed, and
	// its READ is settled.
	rq := &nw.hosts[0].recv[f.peerQP]
	if rq.flowID != 0 || !rq.finished() || rq.readDone != nil || nw.hosts[0].OpenRecvQPs() != 0 {
		t.Fatalf("requester receive QP %d: flow %d, finished %v, READ pending %v", f.peerQP, rq.flowID, rq.finished(), rq.readDone != nil)
	}
}

func TestRDMAReadUnderIRN(t *testing.T) {
	cfg := hpccConfig()
	cfg.FlowCtl = IRN
	nw := buildStar(2, cfg, fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	done := false
	nw.hosts[0].Read(7, nw.hosts[1], 123_456, 0, func() { done = true })
	nw.run(t)
	if !done {
		t.Fatal("READ completion never fired under IRN")
	}
}

func TestUnlimitedSchedulerByDefault(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	for i := 0; i < 400; i++ {
		nw.start(0, 1, 2_000, nil)
	}
	nw.run(t)
	for id, f := range nw.hosts[0].Flows() {
		if !f.Done() {
			t.Fatalf("flow %d unfinished with unlimited scheduler", id)
		}
	}
}
