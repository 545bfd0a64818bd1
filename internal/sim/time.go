// Package sim provides a deterministic discrete-event simulation engine
// with a picosecond-resolution virtual clock.
//
// The picosecond base is chosen so that per-byte serialization times at
// every data-center link speed used by the HPCC paper are exact integers:
// one byte takes 80 ps at 100 Gbps, 320 ps at 25 Gbps, 20 ps at 400 Gbps.
// Exact integer arithmetic makes simulations bit-reproducible across runs
// and platforms, which the test suite relies on.
package sim

import "fmt"

// Time is a point in virtual time (or a span between two points),
// measured in picoseconds since the start of the simulation.
type Time int64

// Time unit constants. These mirror time.Duration's constants but at
// picosecond resolution.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t truncated to nanoseconds.
func (t Time) Nanoseconds() int64 { return int64(t / Nanosecond) }

// Microseconds returns t as a floating-point microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders t with an auto-selected unit, e.g. "12.5us".
func (t Time) String() string {
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	switch {
	case t < Nanosecond:
		return fmt.Sprintf("%s%dps", neg, int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%s%gns", neg, float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%s%gus", neg, float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%s%gms", neg, float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%gs", neg, float64(t)/float64(Second))
	}
}

// Rate is a link or pacing bandwidth in bits per second.
type Rate int64

// Common data-center link speeds.
const (
	Mbps Rate = 1_000_000
	Gbps Rate = 1_000_000_000
)

// PsPerByte returns the serialization time of one byte at rate r,
// rounded to the nearest picosecond. For the standard link speeds used in
// the paper (10/25/40/100/400 Gbps) the result is exact.
func (r Rate) PsPerByte() Time {
	if r <= 0 {
		return 0
	}
	return Time((8*int64(Second) + int64(r)/2) / int64(r))
}

// TxTime returns how long it takes to serialize n bytes at rate r.
func (r Rate) TxTime(n int) Time {
	return Time(int64(n)) * r.PsPerByte()
}

// BytesPerSec returns r expressed in bytes per second.
func (r Rate) BytesPerSec() float64 { return float64(r) / 8 }

// String renders r with an auto-selected unit, e.g. "100Gbps".
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", int64(r/Gbps))
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", int64(r/Mbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}
