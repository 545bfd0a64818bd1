package fabric

import (
	"testing"

	"hpcc/internal/sim"
)

// onePort wires a single transmitter from a mockHost toward a sink and
// returns the engine, the port and the sink.
func onePort(rate sim.Rate, delay sim.Time) (*sim.Engine, *Port, *mockHost) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, rate, delay)
	a.ports = append(a.ports, ab)
	return eng, ab, b
}

// PausedFor must include the in-progress pause, not just completed
// pause episodes.
func TestPausedForIncludesInProgressPause(t *testing.T) {
	eng, ab, _ := onePort(sim.Gbps, 0)
	ab.SetPaused(true)
	eng.RunUntil(300 * sim.Microsecond)
	if got := ab.PausedFor(); got != 300*sim.Microsecond {
		t.Fatalf("mid-pause PausedFor = %v, want 300µs", got)
	}
	eng.RunUntil(500 * sim.Microsecond)
	ab.SetPaused(false)
	if got := ab.PausedFor(); got != 500*sim.Microsecond {
		t.Fatalf("post-resume PausedFor = %v, want 500µs", got)
	}
	// A second episode accumulates on top of the first.
	ab.SetPaused(true)
	eng.RunUntil(600 * sim.Microsecond)
	if got := ab.PausedFor(); got != 600*sim.Microsecond {
		t.Fatalf("second-episode PausedFor = %v, want 600µs", got)
	}
}

// PauseEvents counts pause transitions only: redundant pause frames
// (same state) and resumes must not increment it.
func TestPauseEventsCountsOnlyTransitions(t *testing.T) {
	_, ab, _ := onePort(sim.Gbps, 0)
	ab.SetPaused(true)
	ab.SetPaused(true) // redundant pause: no transition
	if got := ab.PauseEvents(); got != 1 {
		t.Fatalf("PauseEvents after redundant pause = %d, want 1", got)
	}
	ab.SetPaused(false)
	ab.SetPaused(false) // redundant resume
	if got := ab.PauseEvents(); got != 1 {
		t.Fatalf("PauseEvents after resume = %d, want 1 (resumes don't count)", got)
	}
	ab.SetPaused(true)
	if got := ab.PauseEvents(); got != 2 {
		t.Fatalf("PauseEvents after second pause = %d, want 2", got)
	}
}

// A resume must kick the transmitter: packets queued during the pause
// (and packets queued after it) drain without any new Enqueue poke.
func TestResumeKickRestartsPausedQueue(t *testing.T) {
	eng, ab, b := onePort(100*sim.Gbps, sim.Microsecond)
	ab.SetPaused(true)
	for i := 0; i < 5; i++ {
		ab.Enqueue(data(1, 1, 2, int64(i)*1000, 1064), -1)
	}
	eng.RunUntil(100 * sim.Microsecond)
	if len(b.got) != 0 {
		t.Fatalf("%d packets transmitted while paused", len(b.got))
	}
	if got := ab.QueueLen(); got != 5 {
		t.Fatalf("queued = %d, want 5", got)
	}
	ab.SetPaused(false)
	eng.Run()
	if len(b.got) != 5 {
		t.Fatalf("arrivals after resume = %d, want 5", len(b.got))
	}
	// FIFO order survived the pause.
	for i, ar := range b.got {
		if ar.p.Seq != int64(i)*1000 {
			t.Fatalf("arrival %d has seq %d, want %d", i, ar.p.Seq, int64(i)*1000)
		}
	}
	// A second pause/resume cycle keeps working (the paused flag and
	// kick interplay has no one-shot behaviour).
	ab.SetPaused(true)
	ab.Enqueue(data(1, 1, 2, 5000, 1064), -1)
	ab.SetPaused(false)
	eng.Run()
	if len(b.got) != 6 {
		t.Fatalf("arrivals after second cycle = %d, want 6", len(b.got))
	}
	if ab.Paused() {
		t.Fatal("port left paused")
	}
}
