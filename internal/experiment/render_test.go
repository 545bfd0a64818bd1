package experiment

import "testing"

// sizeLabel formatting used across the figure tables.
func TestSizeLabel(t *testing.T) {
	cases := map[int64]string{
		324:        "324",
		6_700:      "6.7K",
		20_000:     "20K",
		1_000_000:  "1M",
		2_500_000:  "2.5M",
		30_000_000: "30M",
	}
	for in, want := range cases {
		if got := sizeLabel(in); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", in, got, want)
		}
	}
}
