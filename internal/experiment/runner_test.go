package experiment

import (
	"testing"

	"hpcc/internal/sim"
)

// runLoadT is RunLoad with test-fatal error handling.
func runLoadT(t *testing.T, s LoadScenario) *LoadResult {
	t.Helper()
	r, err := RunLoad(s)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	return r
}

// RunLoad refuses a scenario Validate rejects (the table of rejected
// values is hpcc's TestExperimentValidation).
func TestRunLoadValidates(t *testing.T) {
	s := dumbbellLoad()
	s.Drain = -sim.Millisecond
	if _, err := RunLoad(s); err == nil {
		t.Fatal("RunLoad accepted a negative drain")
	}
}

// Bounded completed-flow retention must not change any aggregate.
func TestCompletedWindowAccounting(t *testing.T) {
	base := runLoadT(t, dumbbellLoad())
	s := dumbbellLoad()
	s.CompletedWindow = 4
	if got, want := hashResult(runLoadT(t, s)), hashResult(base); got != want {
		t.Fatalf("completed window 4: %+v, want %+v", got, want)
	}
}
