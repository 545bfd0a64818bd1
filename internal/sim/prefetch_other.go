//go:build !amd64

package sim

import "unsafe"

// prefetch2 is a hint only; other architectures go without it.
func prefetch2(a, b unsafe.Pointer) {}
