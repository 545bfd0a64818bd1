package packet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hpcc/internal/sim"
)

func TestEncodedINTLen(t *testing.T) {
	if got := EncodedINTLen(5); got != 42 {
		t.Fatalf("5-hop INT = %d bytes, want 42 (paper §4.1)", got)
	}
	if got := EncodedINTLen(0); got != 2 {
		t.Fatalf("0-hop INT = %d bytes, want 2", got)
	}
	if INTOverhead != 42 {
		t.Fatalf("INTOverhead = %d, want 42", INTOverhead)
	}
}

func TestSpeedEnumRoundTrip(t *testing.T) {
	for _, r := range []sim.Rate{sim.Gbps, 10 * sim.Gbps, 25 * sim.Gbps, 40 * sim.Gbps, 100 * sim.Gbps, 400 * sim.Gbps} {
		code, err := EncodeSpeed(r)
		if err != nil {
			t.Fatalf("EncodeSpeed(%v): %v", r, err)
		}
		back, err := DecodeSpeed(code)
		if err != nil {
			t.Fatalf("DecodeSpeed(%d): %v", code, err)
		}
		if back != r {
			t.Fatalf("round trip %v -> %d -> %v", r, code, back)
		}
	}
	if _, err := EncodeSpeed(33 * sim.Gbps); err == nil {
		t.Fatal("EncodeSpeed accepted a rate outside the enum")
	}
	if _, err := DecodeSpeed(15); err == nil {
		t.Fatal("DecodeSpeed accepted an out-of-range code")
	}
}

func TestINTRoundTripExact(t *testing.T) {
	h := INTHeader{}
	h.Push(Hop{B: 100 * sim.Gbps, TS: 123456 * sim.Nanosecond, TxBytes: 128 * 1000, QLen: 80 * 7}, 0x0abc)
	h.Push(Hop{B: 400 * sim.Gbps, TS: 200000 * sim.Nanosecond, TxBytes: 128 * 31, QLen: 0}, 0x0123)

	var buf [64]byte
	n, err := EncodeINT(&h, buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if n != EncodedINTLen(2) {
		t.Fatalf("encoded %d bytes, want %d", n, EncodedINTLen(2))
	}
	var got INTHeader
	m, err := DecodeINT(buf[:n], &got)
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("decoded %d bytes, want %d", m, n)
	}
	if got.NHops != 2 || got.PathID != (0x0abc^0x0123) {
		t.Fatalf("header = %+v", got)
	}
	for i := 0; i < 2; i++ {
		w, g := h.Hops[i], got.Hops[i]
		if g.B != w.B || g.TxBytes != w.TxBytes || g.QLen != w.QLen {
			t.Fatalf("hop %d: got %+v, want %+v", i, g, w)
		}
		if g.TS != w.TS%((1<<24)*sim.Nanosecond) {
			t.Fatalf("hop %d TS: got %v", i, g.TS)
		}
	}
}

// Property: for random hop values, decode(encode(h)) matches h up to the
// documented quantization (txBytes truncated to 128B, qLen rounded up to
// 80B saturating, TS mod 2^24 ns).
func TestINTRoundTripProperty(t *testing.T) {
	f := func(seed int64, nHopsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nHopsRaw % (MaxHops + 1))
		h := INTHeader{NHops: uint8(n)}
		for i := 0; i < n; i++ {
			h.Hops[i] = Hop{
				B:       speedEnum[1+rng.Intn(len(speedEnum)-1)],
				TS:      sim.Time(rng.Int63n(int64(10 * sim.Second))),
				TxBytes: uint64(rng.Int63n(1 << 40)),
				QLen:    rng.Int63n(40 << 20),
			}
		}
		h.PathID = uint16(rng.Intn(1 << 12))
		var buf [128]byte
		nb, err := EncodeINT(&h, buf[:])
		if err != nil {
			return false
		}
		var got INTHeader
		if _, err := DecodeINT(buf[:nb], &got); err != nil {
			return false
		}
		if int(got.NHops) != n || got.PathID != h.PathID {
			return false
		}
		for i := 0; i < n; i++ {
			w, g := h.Hops[i], got.Hops[i]
			if g.B != w.B {
				return false
			}
			if g.TxBytes != w.TxBytes/TxBytesUnit%(1<<20)*TxBytesUnit {
				return false
			}
			wantQ := (w.QLen + QLenUnit - 1) / QLenUnit
			if wantQ > 0xffff {
				wantQ = 0xffff
			}
			if g.QLen != wantQ*QLenUnit {
				return false
			}
			if g.TS != w.TS/sim.Nanosecond%(1<<24)*sim.Nanosecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnwrapTS(t *testing.T) {
	wrap := sim.Time(1<<24) * sim.Nanosecond
	cases := []struct {
		prev, cur, want sim.Time
	}{
		{100 * sim.Nanosecond, 500 * sim.Nanosecond, 400 * sim.Nanosecond},
		{wrap - 10*sim.Nanosecond, 5 * sim.Nanosecond, 15 * sim.Nanosecond}, // wrapped
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := UnwrapTS(c.prev, c.cur); got != c.want {
			t.Errorf("UnwrapTS(%v,%v) = %v, want %v", c.prev, c.cur, got, c.want)
		}
	}
}

func TestUnwrapTxBytes(t *testing.T) {
	wrap := uint64(1<<20) * TxBytesUnit
	if got := UnwrapTxBytes(wrap-256, 256); got != 512 {
		t.Errorf("wrapped delta = %d, want 512", got)
	}
	if got := UnwrapTxBytes(1024, 4096); got != 3072 {
		t.Errorf("delta = %d, want 3072", got)
	}
}

// Property: deltas survive the wire format for any pair of true counter
// values less than one wrap apart.
func TestUnwrapDeltaProperty(t *testing.T) {
	f := func(startRaw uint64, deltaRaw uint32) bool {
		const wrapBytes = uint64(1<<20) * TxBytesUnit
		start := startRaw % (1 << 50)
		delta := uint64(deltaRaw) % (wrapBytes - TxBytesUnit)
		// Quantize both ends as the switch would.
		prevOnWire := start / TxBytesUnit % (1 << 20) * TxBytesUnit
		curOnWire := (start + delta) / TxBytesUnit % (1 << 20) * TxBytesUnit
		got := UnwrapTxBytes(prevOnWire, curOnWire)
		// True delta, up to one quantum of truncation error.
		diff := int64(got) - int64(delta)
		return diff >= -TxBytesUnit && diff <= TxBytesUnit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantize(t *testing.T) {
	hop := Hop{B: 100 * sim.Gbps, TS: 1234567 * sim.Picosecond, TxBytes: 1000, RxBytes: 999, QLen: 81}
	q := hop.Quantize()
	if q.TS != 1234*
		sim.Nanosecond/sim.Nanosecond*sim.Nanosecond {
		t.Errorf("TS = %v", q.TS)
	}
	if q.TxBytes != 896 { // 1000/128*128
		t.Errorf("TxBytes = %d, want 896", q.TxBytes)
	}
	if q.QLen != 160 { // ceil(81/80)*80
		t.Errorf("QLen = %d, want 160", q.QLen)
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
	if _, err := EncodeINT(&h, make([]byte, 256)); err == nil {
		t.Fatal("encoding an overflowed header should fail")
	}
}

// The 4-bit nHop field can claim more hops than a stack holds; decoding
// such a header is an error, never an index out of range, however many
// bytes follow it.
func TestDecodeINTRejectsDeepStack(t *testing.T) {
	for _, n := range []int{MaxHops + 1, 15} {
		buf := make([]byte, EncodedINTLen(15))
		buf[0] = byte(n << 4)
		var h INTHeader
		if m, err := DecodeINT(buf, &h); err == nil {
			t.Errorf("nHop %d: decoded %d bytes into %+v, want an error", n, m, h)
		}
	}
	buf := make([]byte, EncodedINTLen(MaxHops))
	buf[0] = MaxHops << 4
	if _, err := DecodeINT(buf, new(INTHeader)); err != nil {
		t.Errorf("nHop %d: %v", MaxHops, err)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Type: Data, FlowID: 7, Seq: 1000, PayloadLen: 1000}
	if got := p.String(); got != "DATA f7 seq=1000 len=1000" {
		t.Errorf("String = %q", got)
	}
	p = &Packet{Type: PFC, PFCPause: true, PFCPrio: 3}
	if got := p.String(); got != "PFC PAUSE prio=3" {
		t.Errorf("String = %q", got)
	}
}

// FuzzINTCodec feeds DecodeINT arbitrary bytes. It must return an error
// or a header, never panic, and the bytes it consumed must re-encode to
// themselves: every Figure-7 field decodes to a value that quantizes back
// to the same bits. Seeds live in testdata/fuzz/FuzzINTCodec.
func FuzzINTCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		var h INTHeader
		n, err := DecodeINT(buf, &h)
		if err != nil {
			return
		}
		if n != EncodedINTLen(int(h.NHops)) || int(h.NHops) > MaxHops {
			t.Fatalf("consumed %d bytes for %d hops", n, h.NHops)
		}
		out := make([]byte, n)
		m, err := EncodeINT(&h, out)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", h, err)
		}
		if m != n || string(out) != string(buf[:n]) {
			t.Fatalf("% x re-encoded to % x", buf[:n], out[:m])
		}
	})
}
