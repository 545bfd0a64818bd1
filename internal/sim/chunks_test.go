package sim

import "testing"

// Chunks double from 8 values to the limit: 1000 values at a limit of
// 256 cost the chunks 8, 16, 32, 64, 128, 256, 256 and 256 — eight
// allocations — and every value comes out zeroed and distinct.
func TestChunksGrowToLimit(t *testing.T) {
	seen := map[*[2]int]bool{}
	allocs := testing.AllocsPerRun(1, func() {
		var c Chunks[[2]int]
		clear(seen)
		for i := 0; i < 1000; i++ {
			v := c.Take(256)
			if *v != [2]int{} || seen[v] {
				t.Fatalf("value %d: %v, seen before: %v; want a fresh zero", i, *v, seen[v])
			}
			seen[v] = true
			v[0] = i + 1
		}
	})
	if allocs > 8 {
		t.Errorf("1000 values cost %.0f allocations, want at most 8", allocs)
	}
}
