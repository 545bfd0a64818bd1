// Package fabric is a determinism-check fixture: its import path
// matches the sim scope, so wall clock, global RNG, goroutines and
// map ranges are flagged here.
package fabric

import (
	"fmt"
	"math/rand"
	"time"
)

type port struct {
	pkts  int
	bytes float64
}

type fab struct {
	ports map[int]*port
	total int
	sumB  float64
	out   []int
}

func (f *fab) drain() {}

func (f *fab) tick() {
	t0 := time.Now() // want `time\.Now in a simulation package`
	_ = t0
	n := rand.Intn(4) // want `math/rand\.Intn draws from the process-global source`
	_ = n
	go f.drain() // want `go statement in a simulation package`
}

// seeded draws from a *rand.Rand threaded in by the caller: the
// deterministic pattern, not flagged.
func (f *fab) seeded(rng *rand.Rand) int {
	return rng.Intn(4)
}

// construct builds a seeded stream; constructors are not draws.
func (f *fab) construct(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func (f *fab) metered() {
	//hpcclint:allow determinism -- wall-clock metering only, excluded from results
	t0 := time.Now()
	_ = t0
}

// elapsed: time.Since is a wall-clock read too.
func (f *fab) elapsed(t0 time.Time) {
	_ = time.Since(t0) // want `time\.Since in a simulation package`
}

// Commutative integer accumulation over a map is flagged too: one rule
// covers every map range, and an escape says why order does not matter.
func (f *fab) commutative() {
	for _, p := range f.ports { // want `range over a map in a simulation package`
		f.total += p.pkts
	}
}

func (f *fab) floatSum() {
	for _, p := range f.ports { // want `range over a map in a simulation package`
		f.sumB += p.bytes
	}
}

func (f *fab) appendOrder() {
	for id := range f.ports { // want `range over a map in a simulation package`
		f.out = append(f.out, id)
	}
}

func (f *fab) emits() {
	for id, p := range f.ports { // want `range over a map in a simulation package`
		fmt.Println(id, p.pkts)
	}
}

// delete during iteration is flagged too.
func (f *fab) sweep() {
	for id := range f.ports { // want `range over a map in a simulation package`
		delete(f.ports, id)
	}
}

func (f *fab) dump() {
	//hpcclint:allow determinism -- debug dump, not part of simulation results
	for id := range f.ports {
		fmt.Println(id)
	}
}
