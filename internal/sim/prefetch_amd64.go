package sim

import "unsafe"

// prefetch2 pulls the cache lines at a and b into every cache level. A
// prefetch never faults, so nil or dangling pointers are harmless.
//
//go:noescape
func prefetch2(a, b unsafe.Pointer)
