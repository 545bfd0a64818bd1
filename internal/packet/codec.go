package packet

import (
	"encoding/binary"
	"fmt"

	"hpcc/internal/sim"
)

// This file implements the bit-exact INT wire format from Figure 7 of
// the paper:
//
//	nHop    (4 bits)  hop count, incremented by each switch
//	pathID  (12 bits) XOR of all switch IDs along the path
//	per hop (64 bits):
//	    B       (4 bits)  egress port speed, as an enum
//	    TS      (24 bits) egress timestamp, nanoseconds (wraps at 16.7ms)
//	    txBytes (20 bits) cumulative bytes sent, in units of 128 bytes
//	    qLen    (16 bits) queue length, in units of 80 bytes
//
// The sender only ever consumes *differences* of TS and txBytes between
// two ACKs of the same flow, so the wraparound fields decode correctly as
// long as two consecutive ACKs are less than one wrap apart — true by
// orders of magnitude in a data center.

// Quantization units from Figure 7.
const (
	TxBytesUnit = 128 // bytes
	QLenUnit    = 80  // bytes
	tsMask      = 1<<24 - 1
	txMask      = 1<<20 - 1
)

// speedEnum encodes the port-speed enum ("the type of speed of the
// egress port, e.g. 40Gbps, 100Gbps").
var speedEnum = []sim.Rate{
	0,
	1 * sim.Gbps,
	10 * sim.Gbps,
	25 * sim.Gbps,
	40 * sim.Gbps,
	50 * sim.Gbps,
	100 * sim.Gbps,
	200 * sim.Gbps,
	400 * sim.Gbps,
	800 * sim.Gbps,
}

// EncodeSpeed maps a rate to its 4-bit enum, or an error for a rate the
// wire format cannot express.
func EncodeSpeed(r sim.Rate) (uint8, error) {
	for i, v := range speedEnum {
		if v == r {
			return uint8(i), nil
		}
	}
	return 0, fmt.Errorf("packet: no speed enum for %v", r)
}

// DecodeSpeed is the inverse of EncodeSpeed.
func DecodeSpeed(code uint8) (sim.Rate, error) {
	if int(code) >= len(speedEnum) {
		return 0, fmt.Errorf("packet: invalid speed code %d", code)
	}
	return speedEnum[code], nil
}

// EncodedINTLen returns the encoded byte length for a header with n hops.
func EncodedINTLen(n int) int { return INTBaseBytes + n*INTHopBytes }

// EncodeINT serializes h into buf using the Figure-7 layout and returns
// the number of bytes written. buf must have room for EncodedINTLen
// bytes. Values are quantized exactly as the ASIC would: txBytes in
// 128-byte units (truncated), qLen in 80-byte units (rounded up so a
// non-empty queue never reads as empty, saturating at the field max),
// TS in nanoseconds modulo 2^24.
func EncodeINT(h *INTHeader, buf []byte) (int, error) {
	n := int(h.NHops)
	if n > MaxHops {
		return 0, fmt.Errorf("packet: nHop %d exceeds max %d", n, MaxHops)
	}
	if len(buf) < EncodedINTLen(n) {
		return 0, fmt.Errorf("packet: buffer too small: %d < %d", len(buf), EncodedINTLen(n))
	}
	binary.BigEndian.PutUint16(buf, uint16(n)<<12|h.PathID&0x0fff)
	off := INTBaseBytes
	for i := 0; i < n; i++ {
		hop := &h.Hops[i]
		speed, err := EncodeSpeed(hop.B)
		if err != nil {
			return 0, err
		}
		ts := uint64(hop.TS.Nanoseconds()) & tsMask
		tx := (hop.TxBytes / TxBytesUnit) & txMask
		q := (hop.QLen + QLenUnit - 1) / QLenUnit
		if q > 0xffff {
			q = 0xffff
		}
		word := uint64(speed)<<60 | ts<<36 | tx<<16 | uint64(q)
		binary.BigEndian.PutUint64(buf[off:], word)
		off += INTHopBytes
	}
	return off, nil
}

// DecodeINT parses a Figure-7 INT header from buf and returns the number
// of bytes consumed. The decoded TS and TxBytes are the wrapped on-wire
// values (nanosecond and 128-byte granularity); use
// UnwrapTS/UnwrapTxBytes to reconstruct deltas. A 4-bit nHop beyond
// MaxHops is an error, as in EncodeINT.
func DecodeINT(buf []byte, h *INTHeader) (int, error) {
	if len(buf) < INTBaseBytes {
		return 0, fmt.Errorf("packet: INT header truncated")
	}
	w := binary.BigEndian.Uint16(buf)
	n := int(w >> 12)
	if n > MaxHops {
		return 0, fmt.Errorf("packet: nHop %d exceeds max %d", n, MaxHops)
	}
	h.NHops = uint8(n)
	h.PathID = w & 0x0fff
	if len(buf) < EncodedINTLen(n) {
		return 0, fmt.Errorf("packet: INT hops truncated: have %d bytes, need %d", len(buf), EncodedINTLen(n))
	}
	off := INTBaseBytes
	for i := 0; i < n; i++ {
		word := binary.BigEndian.Uint64(buf[off:])
		off += INTHopBytes
		speed, err := DecodeSpeed(uint8(word >> 60))
		if err != nil {
			return 0, err
		}
		h.Hops[i] = Hop{
			B:       speed,
			TS:      sim.Time(word>>36&tsMask) * sim.Nanosecond,
			TxBytes: (word >> 16 & txMask) * TxBytesUnit,
			QLen:    int64(word&0xffff) * QLenUnit,
		}
	}
	return off, nil
}

// UnwrapTS reconstructs the true delta between two wrapped 24-bit
// nanosecond timestamps (cur sampled after prev).
func UnwrapTS(prev, cur sim.Time) sim.Time {
	const wrap = (tsMask + 1) * int64(sim.Nanosecond)
	d := (int64(cur) - int64(prev)) % wrap
	if d < 0 {
		d += wrap
	}
	return sim.Time(d)
}

// UnwrapTxBytes reconstructs the true byte delta between two wrapped
// 20-bit 128-byte-unit counters (cur sampled after prev).
func UnwrapTxBytes(prev, cur uint64) uint64 {
	const wrap = (txMask + 1) * TxBytesUnit
	d := (int64(cur) - int64(prev)) % wrap
	if d < 0 {
		d += wrap
	}
	return uint64(d)
}

// Quantize rounds a hop record through the wire representation, so the
// simulator can hand congestion-control exactly what a hardware INT
// implementation would deliver. TS keeps absolute (unwrapped) time but
// at nanosecond granularity; TxBytes is truncated to 128-byte units;
// QLen is rounded up to 80-byte units.
func (hop Hop) Quantize() Hop {
	q := (hop.QLen + QLenUnit - 1) / QLenUnit * QLenUnit
	return Hop{
		B:       hop.B,
		TS:      hop.TS / sim.Nanosecond * sim.Nanosecond,
		TxBytes: hop.TxBytes / TxBytesUnit * TxBytesUnit,
		RxBytes: hop.RxBytes / TxBytesUnit * TxBytesUnit,
		QLen:    q,
	}
}
