package fabric

import (
	"testing"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// The class rule: a frame's class is its type. Data rides the data
// class and every other type the control class, through a port and
// through a switch alike.
//
// At a port with three data frames sent ahead of it (one on the wire,
// two queued), a control frame leaves second, ahead of the queued data,
// and still does while data is paused; a data frame leaves fourth, and
// not at all until data resumes.
//
// At a switch that ECN-marks every data frame (KMax 2 B) and stamps INT,
// toward an egress whose data is paused behind one queued data frame,
// a data frame is charged to the shared buffer, marked, held by the
// pause and INT-stamped when it leaves; a control frame is none of the
// four. A PFC frame never crosses a switch: the switch consumes it and
// pauses the transmitter back toward its sender.
func TestClassIsType(t *testing.T) {
	for typ := packet.Data; typ <= packet.ReadReq; typ++ {
		isData := typ == packet.Data
		t.Run(typ.String(), func(t *testing.T) {
			for _, pause := range []bool{false, true} {
				eng := sim.NewEngine()
				b := &frameLog{}
				ab, _ := Connect(eng, &mockHost{id: 1, eng: eng}, b, 0, 0, sim.Gbps, 0)
				for i := 0; i < 3; i++ {
					ab.Enqueue(data(1, 1, 2, int64(i)*1000, 1064), -1)
				}
				ab.SetPaused(pause)
				p := &packet.Packet{Type: typ, FlowID: 9, Src: 1, Dst: 2, Size: 64}
				ab.Enqueue(p, -1)
				eng.Run()
				want := 2 // control: behind the frame on the wire only
				if isData {
					want = 4
				}
				if pause && isData {
					if len(b.got) != 1 || ab.QueueLen() != 3 {
						t.Fatalf("data paused: %d frames left, %d data frames queued; want 1, 3", len(b.got), ab.QueueLen())
					}
					ab.SetPaused(false)
					eng.Run()
				}
				if len(b.got) < want || b.got[want-1] != p {
					t.Fatalf("paused %v: the frame was not frame %d to leave (%d left)", pause, want, len(b.got))
				}
			}

			cfg := SwitchConfig{ECNEnabled: true, KMin: 1, KMax: 2, INTEnabled: true, PFCEnabled: true, BufferBytes: 1 << 20}
			eng, a, s, b := lineTopo(t, cfg, 100*sim.Gbps, 0)
			in, eg := s.Ports()[0], s.Ports()[1]
			eg.SetPaused(true)
			s.HandleArrival(data(1, a.id, b.id, 0, 1064), in)
			p := packet.NewPool().GetINT()
			p.Type, p.FlowID, p.Src, p.Dst, p.Size, p.PFCPause = typ, 9, int32(a.id), int32(b.id), 64, true
			used := s.BufferUsed()
			s.HandleArrival(p, in)
			if typ == packet.PFC {
				if !in.Paused() || s.BufferUsed() != used || eg.TotalQueueBytes() != 1064 {
					t.Fatalf("PFC at a switch: upstream paused %v, buffer %d → %d B, %d B queued; want consumed",
						in.Paused(), used, s.BufferUsed(), eg.TotalQueueBytes())
				}
				return
			}
			charged := s.BufferUsed() - used
			marked := p.ECNCE
			eng.Run()
			held := len(b.got) == 0
			eg.SetPaused(false)
			eng.Run()
			if len(b.got) != 2 {
				t.Fatalf("%d frames left the switch, want 2", len(b.got))
			}
			stamped := p.INT.NHops == 1
			if (charged != 0) != isData || marked != isData || held != isData || stamped != isData {
				t.Fatalf("charged %d B, marked %v, held by the pause %v, INT-stamped %v; want %v for each",
					charged, marked, held, stamped, isData)
			}
		})
	}
}

// frameLog records every frame that reaches it, PFC frames included.
type frameLog struct{ got []*packet.Packet }

func (l *frameLog) ID() NodeID                                          { return 2 }
func (l *frameLog) HandleArrival(p *packet.Packet, in *Port)            { l.got = append(l.got, p) }
func (l *frameLog) OnDequeue(p *packet.Packet, ingress int, from *Port) {}
