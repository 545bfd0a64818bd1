package experiment

import (
	"testing"

	"hpcc/internal/sim"
	"hpcc/internal/stats"
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

// A queue observer sees every sample, retained or not.
func TestQueueObserverSeesSamples(t *testing.T) {
	s := dumbbellLoad()
	s.QueueSampleCap = 1
	seen := 0
	s.Obs.OnQueue = func(stats.TimePoint) { seen++ }
	runLoadT(t, s)
	if seen <= 1 {
		t.Fatalf("queue observer saw %d ticks with one retained, want every tick", seen)
	}
}

// Bounded queue-sample retention: the cap must bound QueueKB however
// long the horizon, and must actually engage.
func TestQueueSampleCap(t *testing.T) {
	const capTicks = 16
	s := dumbbellLoad()
	uncapped := runLoadT(t, s)
	s.QueueSampleCap = capTicks
	capped := runLoadT(t, s)
	// 8 edge ports on the 4-pair dumbbell: the retained samples are
	// rows × ports.
	if len(capped.QueueKB) == 0 || len(capped.QueueKB) > capTicks*8 {
		t.Fatalf("capped run retained %d samples, want (0, %d]", len(capped.QueueKB), capTicks*8)
	}
	if len(uncapped.QueueKB) <= len(capped.QueueKB) {
		t.Fatalf("cap retained %d samples but uncapped has %d — cap never engaged",
			len(capped.QueueKB), len(uncapped.QueueKB))
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
