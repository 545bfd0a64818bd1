package packet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hpcc/internal/sim"
)

// The INT wire size: a 2-byte base plus 8 bytes per hop, so a full
// five-hop stack is §5.1's worst-case 42-byte tax.
func TestEncodedINTLen(t *testing.T) {
	if got := INTBaseBytes + 5*INTHopBytes; got != 42 {
		t.Fatalf("5-hop INT = %d bytes, want 42 (paper §4.1)", got)
	}
	if INTBaseBytes != 2 {
		t.Fatalf("0-hop INT = %d bytes, want 2", INTBaseBytes)
	}
	if INTOverhead != 42 {
		t.Fatalf("INTOverhead = %d, want 42", INTOverhead)
	}
}

// Quantize states Figure 7's precision rules: TS in whole nanoseconds,
// TxBytes and RxBytes truncated to 128 B, QLen rounded up to 80 B and
// capped at the 16-bit field's 65 535 × 80 B, B untouched. A quantized
// hop is a fixed point.
func TestQuantize(t *testing.T) {
	hop := Hop{B: 100 * sim.Gbps, TS: 1234567 * sim.Picosecond, TxBytes: 1000, RxBytes: 999, QLen: 81}
	want := Hop{B: 100 * sim.Gbps, TS: 1234 * sim.Nanosecond, TxBytes: 896, RxBytes: 896, QLen: 160}
	if got := hop.Quantize(); got != want {
		t.Errorf("Quantize(%+v) = %+v, want %+v", hop, got, want)
	}
	for _, c := range []struct{ in, want int64 }{
		{0, 0}, {1, 80}, {5_242_799, 5_242_800}, {5_242_800, 5_242_800},
		{5_242_801, 5_242_800}, {32 << 20, 5_242_800},
	} {
		if got := (Hop{QLen: c.in}).Quantize().QLen; got != c.want {
			t.Errorf("QLen %d quantized to %d, want %d", c.in, got, c.want)
		}
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := Hop{
			B:       sim.Rate(rng.Int63n(int64(800 * sim.Gbps))),
			TS:      sim.Time(rng.Int63n(int64(10 * sim.Second))),
			TxBytes: uint64(rng.Int63n(1 << 40)),
			RxBytes: uint64(rng.Int63n(1 << 40)),
			QLen:    rng.Int63n(10 << 20),
		}
		q := h.Quantize()
		truncated := func(v, got, unit uint64) bool { return got <= v && v-got < unit && got%unit == 0 }
		wantQ := int64(5_242_800)
		if h.QLen < wantQ {
			wantQ = (h.QLen + 79) / 80 * 80
		}
		ok := q.Quantize() == q && q.B == h.B && q.QLen == wantQ &&
			truncated(uint64(h.TS), uint64(q.TS), uint64(sim.Nanosecond)) &&
			truncated(h.TxBytes, q.TxBytes, 128) && truncated(h.RxBytes, q.RxBytes, 128)
		if !ok {
			t.Logf("Quantize(%+v) = %+v", h, q)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestINTPushOverflow(t *testing.T) {
	h := INTHeader{}
	for i := 0; i < MaxHops+2; i++ {
		h.Push(Hop{B: 100 * sim.Gbps}, uint16(i))
	}
	if h.NHops != MaxHops+2 {
		t.Fatalf("NHops = %d", h.NHops)
	}
	if len(h.Records()) != MaxHops {
		t.Fatalf("Records() len = %d, want clamped to %d", len(h.Records()), MaxHops)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Type: Data, FlowID: 7, Seq: 1000, PayloadLen: 1000}
	if got := p.String(); got != "DATA f7 seq=1000 len=1000" {
		t.Errorf("String = %q", got)
	}
	p = &Packet{Type: PFC, PFCPause: true}
	if got := p.String(); got != "PFC PAUSE" {
		t.Errorf("String = %q", got)
	}
}
