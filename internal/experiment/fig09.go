package experiment

import (
	"hpcc/internal/sim"
	"hpcc/internal/stats"
)

// fig9Rate is the testbed NIC speed (25 Gbps, §5.1).
const fig9Rate = 25 * sim.Gbps

// fig9Grid is a Figure 9 panel: the star cell cell makes of each scheme
// the paper compares, HPCC and DCQCN (columns), at 25 Gbps.
func fig9Grid(cell func(Scheme) starCell) *Grid[*StarRun] {
	schemes := []Scheme{ByNameMust("hpcc"), ByNameMust("dcqcn")}
	return runGrid([]string{"25G"}, schemeLabels(schemes), func(_, c int) starCell {
		return cell(schemes[c])
	}, runStar)
}

// Fig09LongShort is Figure 9a/9b: a long flow (flow 0) and a 1 MB short
// flow (flow 1) that comes and goes.
func Fig09LongShort(dur sim.Time, seed int64) *Grid[*StarRun] {
	if dur == 0 {
		dur = 3 * sim.Millisecond
	}
	flows := append(longFlows(1, 2), starFlow{At: dur / 6, Src: 1, Dst: 2, Size: 1 << 20})
	return fig9Grid(func(s Scheme) starCell {
		return starCell{Scheme: s, Hosts: 3, Rate: fig9Rate, Flows: flows,
			Dur: dur, Bin: 50 * sim.Microsecond, Sink: 2, Seed: seed}
	})
}

// recoverAfter is how long past the short flow's end the long flow
// needed to regain 90% of the achievable rate: -1 if it never did, or
// the short flow never ended.
func recoverAfter(r *StarRun) sim.Time {
	end := r.Finished[1]
	if end == 0 {
		return -1
	}
	for _, tp := range r.Goodput(0) {
		if tp.T >= end && tp.V >= 0.9*r.Cap {
			return tp.T + r.Bin - end // bin end covers the rate
		}
	}
	return -1
}

// tailRate is the long flow's goodput over the final quarter of the run
// — the paper's claim distilled: HPCC is back at line rate, DCQCN is
// not.
func tailRate(r *StarRun) float64 { return r.Rates(r.Dur*3/4, r.Dur)[0] }

// fig09LongShortTable renders Figure 9a/9b. Its notes quote the last
// column's goodput ceiling.
func fig09LongShortTable(g *Grid[*StarRun]) *Table {
	runs := g.Results[0]
	t := &Table{
		Title: "Figure 9a/9b: long-flow rate recovery around a 1MB short flow (25G)",
		Cols:  []string{"time(us)"},
	}
	long := make([][]stats.TimePoint, len(runs))
	for c, s := range g.Cols {
		t.Cols = append(t.Cols, s+"-long(Gbps)", s+"-queue(KB)")
		long[c] = runs[c].Goodput(0)
	}
	qPerBin := len(runs[0].Queue) / len(long[0])
	for i := range long[0] {
		row := []string{f1(long[0][i].T.Microseconds())}
		for c, r := range runs {
			qi := min(i*qPerBin, len(r.Queue)-1)
			row = append(row, f1(long[c][i].V), f1(r.Queue[qi].V/1024))
		}
		t.AddRow(row...)
	}
	capGbps := runs[len(runs)-1].Cap
	for c, s := range g.Cols {
		r := runs[c]
		if rec := recoverAfter(r); rec >= 0 {
			t.AddNote("%s: short flow ended at %v; long flow back to 90%% of %.1f Gbps after %v; tail rate %.1f Gbps",
				s, r.Finished[1], capGbps, rec, tailRate(r))
		} else {
			t.AddNote("%s: never recovered to 90%% within the horizon (short flow done: %v); tail rate %.1f Gbps",
				s, r.Finished[1] > 0, tailRate(r))
		}
	}
	return t
}

// Fig09Incast is Figure 9c/9d: 7 senders of 500 KB join the receiver
// of a long-running flow a fifth of the way into the run.
func Fig09Incast(dur sim.Time, seed int64) *Grid[*StarRun] {
	if dur == 0 {
		dur = 5 * sim.Millisecond
	}
	flows := longFlows(1, 8)
	for i := 1; i <= 7; i++ {
		flows = append(flows, starFlow{At: dur / 5, Src: i, Dst: 8, Size: 500_000})
	}
	return fig9Grid(func(s Scheme) starCell {
		return starCell{Scheme: s, Hosts: 9, Rate: fig9Rate, Flows: flows,
			Dur: dur, Bin: 50 * sim.Microsecond, Sink: 8, Seed: seed}
	})
}

// fig09IncastTable renders Figure 9c/9d: the receiver port's buffer
// over time, its peak, and how long after the burst it drained below a
// tenth of that.
func fig09IncastTable(g *Grid[*StarRun]) *Table {
	t := queueTable("Figure 9c/9d: 7-to-1 incast joining a long flow (25G) — buffer at receiver port", g,
		func(i int) int { return i + 100 })
	for c, s := range g.Cols {
		r := g.Results[0][c]
		if drain := r.DrainTime(r.Dur / 5); drain >= 0 {
			t.AddNote("%s: peak buffer %.1f KB, drained %.1fus after burst", s, r.Peak()/1024, drain.Microseconds())
		} else {
			t.AddNote("%s: peak buffer %.1f KB, not drained within the horizon", s, r.Peak()/1024)
		}
	}
	return t
}

// Fig09Mice is Figure 9e/9f: hosts 0 and 1 send elephants to host 3
// while host 2 sends it a 1 KB mouse every 100 µs (flows 2 on).
func Fig09Mice(dur sim.Time, seed int64) *Grid[*StarRun] {
	if dur == 0 {
		dur = 5 * sim.Millisecond
	}
	flows := longFlows(2, 3)
	gap := 100 * sim.Microsecond
	for at := gap; at < dur-gap; at += gap {
		flows = append(flows, starFlow{At: at, Src: 2, Dst: 3, Size: 1000})
	}
	return fig9Grid(func(s Scheme) starCell {
		return starCell{Scheme: s, Hosts: 4, Rate: fig9Rate, Flows: flows,
			Dur: dur, Bin: 50 * sim.Microsecond, Sink: 3, Seed: seed}
	})
}

// fig09MiceTable renders Figure 9e/9f: mice latency and queue
// percentiles per scheme.
func fig09MiceTable(g *Grid[*StarRun]) *Table {
	t := &Table{
		Title: "Figure 9e/9f: mice latency and queue size under two elephants (25G)",
		Cols:  []string{"scheme", "lat-p50(us)", "lat-p95(us)", "lat-p99(us)", "q-p50(KB)", "q-p95(KB)", "q-p99(KB)"},
	}
	for c, s := range g.Cols {
		r := g.Results[0][c]
		lat := stats.Summarize(r.Latencies(2))
		t.AddRow(s, f1(lat.P50), f1(lat.P95), f1(lat.P99),
			f1(r.Quantile(50)/1024), f1(r.Quantile(95)/1024), f1(r.Quantile(99)/1024))
	}
	first := g.Results[0][0]
	t.AddNote("base RTT %.1f us; %d mice per scheme", first.BaseRTT.Microseconds(), len(first.Latencies(2)))
	return t
}

// fairFlows is how many flows Figure 9g/9h staggers: they join one per
// epoch, then leave one per epoch, over 2·fairFlows−1 epochs.
const fairFlows = 4

// Fig09Fairness is Figure 9g/9h: flow f runs from epoch f to epoch
// fairFlows+f. The paper's epochs are 1 s; the default here is 4 ms
// (scaled, noted in the output) so the whole suite stays CI-friendly.
func Fig09Fairness(epoch sim.Time, seed int64) *Grid[*StarRun] {
	if epoch == 0 {
		epoch = 4 * sim.Millisecond
	}
	flows := longFlows(fairFlows, fairFlows)
	for i := range flows {
		flows[i].At, flows[i].Stop = sim.Time(i)*epoch, sim.Time(fairFlows+i)*epoch
	}
	return fig9Grid(func(s Scheme) starCell {
		return starCell{Scheme: s, Hosts: fairFlows + 1, Rate: fig9Rate, Flows: flows,
			Dur: (2*fairFlows - 1) * epoch, Bin: epoch / 8, Sink: -1, Seed: seed}
	})
}

// fairEpoch is epoch e of a fairness run: every flow's goodput over the
// epoch's second half, and that of the flows active in it.
func fairEpoch(r *StarRun, e int) (rates, active []float64) {
	epoch := r.Dur / (2*fairFlows - 1)
	rates = r.Rates(sim.Time(e)*epoch+epoch/2, sim.Time(e+1)*epoch)
	for f, rate := range rates {
		if e >= f && e < fairFlows+f {
			active = append(active, rate)
		}
	}
	return rates, active
}

// fig09FairnessTable renders Figure 9g/9h: per-epoch rates and the Jain
// index over the active flows.
func fig09FairnessTable(g *Grid[*StarRun]) *Table {
	t := &Table{
		Title: "Figure 9g/9h: fair share under staggered join/leave (25G)",
		Cols:  []string{"scheme", "epoch", "active", "f1(Gbps)", "f2", "f3", "f4", "Jain"},
	}
	for c, s := range g.Cols {
		for e := 0; e < 2*fairFlows-1; e++ {
			rates, active := fairEpoch(g.Results[0][c], e)
			t.AddRow(s, f1(float64(e)), f1(float64(len(active))),
				f1(rates[0]), f1(rates[1]), f1(rates[2]), f1(rates[3]),
				f2(stats.Jain(active)))
		}
	}
	t.AddNote("epochs scaled to %v (paper: 1s); rates measured over each epoch's second half", g.Results[0][0].Dur/(2*fairFlows-1))
	return t
}
