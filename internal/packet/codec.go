package packet

import "hpcc/internal/sim"

// Quantization units from Figure 7.
const (
	TxBytesUnit = 128 // bytes
	QLenUnit    = 80  // bytes
)

// maxQLen is the largest queue a 16-bit qLen field in QLenUnit can
// carry: 65 535 × 80 B = 5 242 800 B.
const maxQLen = 0xffff * QLenUnit

// Quantize rounds a hop record to the precision of the Figure-7 wire
// format, so congestion control sees what a hardware INT implementation
// would deliver: TS in whole nanoseconds, TxBytes and RxBytes truncated
// to 128-byte units, and QLen rounded up to 80-byte units (a non-empty
// queue never reads as empty) and saturated at the 16-bit field's
// maximum. B stays a rate rather than a 4-bit speed enum.
//
// The 24-bit TS and 20-bit txBytes fields wrap, but a sender only takes
// differences of consecutive ACKs' TS and txBytes, and those come out
// the same with or without the wrap while the ACKs are less than
// 16.7 ms and 134 MB apart, so TS and TxBytes stay unwrapped here.
func (hop Hop) Quantize() Hop {
	return Hop{
		B:       hop.B,
		TS:      hop.TS / sim.Nanosecond * sim.Nanosecond,
		TxBytes: hop.TxBytes / TxBytesUnit * TxBytesUnit,
		RxBytes: hop.RxBytes / TxBytesUnit * TxBytesUnit,
		QLen:    min((hop.QLen+QLenUnit-1)/QLenUnit*QLenUnit, maxQLen),
	}
}
