package experiment

import (
	"strings"
	"testing"

	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// The tests below run scaled-down versions of every figure and assert
// the paper's qualitative claims — who wins, in which direction — not
// absolute numbers.

// schemeNames are ByName's nine spellings.
var schemeNames = []string{
	"hpcc", "hpcc-rxrate", "hpcc-perack", "hpcc-perrtt",
	"dcqcn", "dcqcn+win", "timely", "timely+win", "dctcp",
}

func TestByName(t *testing.T) {
	for _, name := range schemeNames {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Factory == nil {
			t.Fatalf("ByName(%q): nil factory", name)
		}
		if s.ECN && (s.Kmin == nil || s.Kmax == nil) {
			t.Fatalf("ByName(%q): ECN without thresholds", name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("accepted an unknown scheme")
	}
}

func TestFig11SchemeOrder(t *testing.T) {
	names := []string{}
	for _, s := range Fig11Schemes() {
		names = append(names, s.Name)
	}
	want := "DCQCN TIMELY DCQCN+win TIMELY+win DCTCP HPCC"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("scheme order = %q, want %q", got, want)
	}
}

func TestFig06RxRateOscillates(t *testing.T) {
	g := Fig06(300*sim.Microsecond, 1)
	if len(g.Results[0]) != 2 {
		t.Fatal("want 2 variants")
	}
	txFirst, txRebuild := g.Results[0][0].Overshoot()
	rxFirst, rxRebuild := g.Results[0][1].Overshoot()
	// Both start at line rate: identical initial overshoot.
	if txFirst < 10*1024 || rxFirst < 10*1024 {
		t.Fatalf("peaks = %.1f / %.1f KB, expected a line-rate-start transient", txFirst/1024, rxFirst/1024)
	}
	// The paper's claim: rxRate oscillates (queue rebuilds after the
	// first drain), txRate converges gracefully.
	if rxRebuild <= txRebuild {
		t.Fatalf("rxRate rebuild %.1f KB should exceed txRate rebuild %.1f KB",
			rxRebuild/1024, txRebuild/1024)
	}
}

func TestFig13ReactionStrategies(t *testing.T) {
	g := Fig13(300*sim.Microsecond, 1)
	idx := map[string]int{}
	for i, s := range g.Cols {
		idx[s] = i
	}
	runs := g.Results[0]
	perAck, perRTT, combined := runs[idx["HPCC-perACK"]], runs[idx["HPCC-perRTT"]], runs[idx["HPCC"]]
	// Per-ACK overreacts: throughput collapses.
	if perAck.MeanGoodput() >= 0.7*combined.MeanGoodput() {
		t.Fatalf("per-ACK avg %.1f should collapse vs HPCC %.1f", perAck.MeanGoodput(), combined.MeanGoodput())
	}
	// Per-RTT drains the queue slowly.
	if lateQueue(perRTT) <= lateQueue(combined) {
		t.Fatalf("per-RTT late queue %.1f KB should exceed HPCC %.1f KB",
			lateQueue(perRTT)/1024, lateQueue(combined)/1024)
	}
	// HPCC keeps high throughput.
	if combined.MeanGoodput() < 0.7*combined.Cap {
		t.Fatalf("HPCC avg %.1f Gbps too low vs cap %.1f", combined.MeanGoodput(), combined.Cap)
	}
}

func TestFig14WAITradeoff(t *testing.T) {
	g := Fig14([]float64{25, 300}, 3*sim.Millisecond, 1)
	if len(g.Results) != 2 {
		t.Fatal("want 2 rows")
	}
	small, large := g.Results[0][0], g.Results[1][0]
	// Larger W_AI → more standing queue (beyond the §3.3 bound).
	if large.Quantile(95) < small.Quantile(95) {
		t.Fatalf("W_AI=300 q95 %.1f KB should be ≥ W_AI=25 q95 %.1f KB",
			large.Quantile(95)/1024, small.Quantile(95)/1024)
	}
	// Both should keep utilization high.
	smallTotal, largeTotal := sum(finalShares(small)), sum(finalShares(large))
	if smallTotal < 0.6*small.Cap || largeTotal < 0.6*large.Cap {
		t.Fatalf("total throughput too low: %v / %v of cap %.1f", smallTotal, largeTotal, small.Cap)
	}
	// The paper's stability bound for 16 flows.
	if limit := stableLimit(small); limit < 100 || limit > 200 {
		t.Fatalf("stability bound = %.0f, want ≈ 150 bytes", limit)
	}
}

// fig9Runs indexes a Figure 9 grid's HPCC and DCQCN runs.
func fig9Runs(g *Grid[*StarRun]) (hpcc, dcqcn *StarRun) {
	for c, s := range g.Cols {
		switch s {
		case "HPCC":
			hpcc = g.Results[0][c]
		case "DCQCN":
			dcqcn = g.Results[0][c]
		}
	}
	return hpcc, dcqcn
}

func TestFig09LongShortRecovery(t *testing.T) {
	g := Fig09LongShort(2*sim.Millisecond, 1)
	h, d := fig9Runs(g)
	// HPCC: short flow completes and the long flow is back to 90% of
	// line within a few hundred µs (paper: "right after").
	if h.Finished[1] == 0 {
		t.Fatal("HPCC short flow never finished")
	}
	if rec := recoverAfter(h); rec < 0 || rec > 500*sim.Microsecond {
		t.Fatalf("HPCC recovery = %v, want prompt", rec)
	}
	// Paper: DCQCN cannot recover to line rate even after 2 ms. The
	// long flow's tail rate must show the gap.
	if tailRate(h) < 0.85*d.Cap {
		t.Fatalf("HPCC tail rate %.1f of %.1f Gbps: did not recover", tailRate(h), d.Cap)
	}
	if tailRate(d) >= 0.95*tailRate(h) {
		t.Fatalf("DCQCN tail %.1f Gbps should lag HPCC %.1f", tailRate(d), tailRate(h))
	}
}

func TestFig09IncastDrain(t *testing.T) {
	g := Fig09Incast(4*sim.Millisecond, 1)
	h, d := fig9Runs(g)
	if h.Peak() <= 0 || d.Peak() <= 0 {
		t.Fatal("no queue build-up recorded")
	}
	// Paper: HPCC drains quickly; DCQCN builds ~550 KB and lingers.
	if h.Peak() >= d.Peak() {
		t.Fatalf("HPCC peak %.1f KB should be below DCQCN peak %.1f KB", h.Peak()/1024, d.Peak()/1024)
	}
	burst := h.Dur / 5
	if !drainsFirst(h, d, burst) {
		t.Fatalf("HPCC drain %v should beat DCQCN %v (-1: not drained)", h.DrainTime(burst), d.DrainTime(burst))
	}
	// The check fails an HPCC queue that never drains, and passes one
	// that drains while DCQCN's lingers past the horizon.
	drained := &StarRun{Queue: queueSeries(40, 20, 0, 0)}
	lingers := &StarRun{Queue: queueSeries(10, 40, 40, 40)}
	if drainsFirst(lingers, drained, 0) || drainsFirst(lingers, lingers, 0) || !drainsFirst(drained, lingers, 0) {
		t.Fatal("drainsFirst misjudges a queue that never drains")
	}
}

// drainsFirst reports whether a's queue drained after from and b's
// either did not or took longer.
func drainsFirst(a, b *StarRun, from sim.Time) bool {
	da, db := a.DrainTime(from), b.DrainTime(from)
	return da >= 0 && (db < 0 || da < db)
}

func TestFig09MiceLatency(t *testing.T) {
	g := Fig09Mice(4*sim.Millisecond, 1)
	h, d := fig9Runs(g)
	hLat, dLat := stats.Summarize(h.Latencies(2)), stats.Summarize(d.Latencies(2))
	// Paper: HPCC keeps near-zero queues → mice latency near base RTT;
	// DCQCN keeps a standing queue around the ECN threshold.
	if hLat.P95 >= dLat.P95 {
		t.Fatalf("HPCC mice p95 %.1fus should beat DCQCN %.1fus", hLat.P95, dLat.P95)
	}
	if h.Quantile(95) >= d.Quantile(95) {
		t.Fatalf("HPCC queue p95 %.1f KB should beat DCQCN %.1f KB", h.Quantile(95)/1024, d.Quantile(95)/1024)
	}
	if base := h.BaseRTT.Microseconds(); hLat.P50 > 4*base {
		t.Fatalf("HPCC median mice latency %.1fus too far above base RTT %.1fus", hLat.P50, base)
	}
}

func TestFig09FairnessJain(t *testing.T) {
	g := Fig09Fairness(2*sim.Millisecond, 1)
	h, _ := fig9Runs(g)
	// Epoch 3 has all four flows active: HPCC shares fairly even on
	// short timescales (the W_AI default targets 100 flows, so full
	// convergence takes longer than these scaled 2 ms epochs).
	if _, active := fairEpoch(h, 3); stats.Jain(active) < 0.75 {
		t.Fatalf("HPCC Jain with 4 flows = %.2f, want ≥ 0.75", stats.Jain(active))
	}
	// Epoch 6 has only flow 4 left: it should claim most of the line.
	if rates, _ := fairEpoch(h, 6); rates[3] < 15 {
		t.Fatalf("last flow rate = %.1f Gbps, want near line (25G minus overheads)", rates[3])
	}
}

func TestFig10QueueAndTails(t *testing.T) {
	if testing.Short() {
		t.Skip("load scenario: skipped in -short")
	}
	g := Fig10(Scale{MaxFlows: 200, Until: 5 * sim.Millisecond, Drain: 15 * sim.Millisecond})
	for li, load := range g.Rows {
		h := g.Results[li][0]
		d := g.Results[li][1]
		// Paper: HPCC keeps queues ultra-low even at the tail.
		if h.Queue.P99 >= d.Queue.P99 && d.Queue.P99 > 0 {
			t.Fatalf("load %s: HPCC q-p99 %.1f KB !< DCQCN %.1f KB",
				load, h.Queue.P99/1024, d.Queue.P99/1024)
		}
		if h.Drops != 0 {
			t.Fatalf("HPCC dropped %d packets with PFC on", h.Drops)
		}
	}
	// Short-flow p99 slowdown: HPCC below DCQCN at 50% load (bucket 0
	// = flows ≤ 6.7KB; paper reports 95% reduction).
	h50 := g.Results[1][0].FCT.Buckets(stats.WebSearchEdges())[0].Stats.P99
	d50 := g.Results[1][1].FCT.Buckets(stats.WebSearchEdges())[0].Stats.P99
	if h50 >= d50 {
		t.Fatalf("short-flow p99 slowdown: HPCC %.2f !< DCQCN %.2f", h50, d50)
	}
}

func TestFig02TimerTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("load scenario: skipped in -short")
	}
	g := Fig02(Scale{MaxFlows: 150, Until: 4 * sim.Millisecond, Drain: 12 * sim.Millisecond})
	if len(g.Cols) != 3 {
		t.Fatal("want 3 timer settings")
	}
	// The aggressive setting (last: Ti=55,Td=50) must pause at least as
	// much as the conservative one (first: Ti=900,Td=4) under incast.
	incast := g.Results[1]
	if incast[2].PauseFrac < incast[0].PauseFrac {
		t.Fatalf("aggressive timers paused less (%.4f) than conservative (%.4f)",
			incast[2].PauseFrac, incast[0].PauseFrac)
	}
}

func TestFig03ThresholdTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("load scenario: skipped in -short")
	}
	g := Fig03(Scale{MaxFlows: 150, Until: 4 * sim.Millisecond, Drain: 12 * sim.Millisecond})
	// Low ECN thresholds keep queues smaller than high thresholds
	// (bandwidth-vs-latency trade-off), at 50% load.
	high := g.Results[1][0].Queue.P99 // Kmin=400K,Kmax=1600K
	low := g.Results[1][2].Queue.P99  // Kmin=12K,Kmax=50K
	if low >= high {
		t.Fatalf("low-threshold q-p99 %.1f KB !< high-threshold %.1f KB", low/1024, high/1024)
	}
}

func TestFig11SixSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("load scenario: skipped in -short")
	}
	spec := topology.FatTreeSpec{Cores: 2, Aggs: 2, ToRs: 4, HostsPerToR: 4,
		HostRate: 100 * sim.Gbps, FabricRate: 400 * sim.Gbps, LinkDelay: sim.Microsecond}
	g := Fig11(spec, Scale{MaxFlows: 150, Until: 3 * sim.Millisecond, Drain: 12 * sim.Millisecond})
	if len(g.Results) != 2 || len(g.Results[0]) != 6 {
		t.Fatalf("want 2 panels × 6 schemes")
	}
	idx := map[string]int{}
	for i, s := range g.Cols {
		idx[s] = i
	}
	// Paper: with HPCC, PFC pauses are never triggered even under
	// incast (with the full 32 MB buffer). At this scaled-down buffer
	// the unavoidable first-RTT line-rate burst (Appendix A.4) may
	// graze the threshold, so assert near-zero and far below DCQCN.
	hp := g.Results[0][idx["HPCC"]]
	dc := g.Results[0][idx["DCQCN"]]
	if hp.PauseFrac > 0.005 {
		t.Fatalf("HPCC pause fraction %.4f, want ≈ 0", hp.PauseFrac)
	}
	if dc.PauseFrac > 0 && hp.PauseFrac > dc.PauseFrac/2 {
		t.Fatalf("HPCC pause %.4f not well below DCQCN %.4f", hp.PauseFrac, dc.PauseFrac)
	}
	// HPCC keeps tail queues below the rate-only schemes.
	if hp.Queue.P99 >= dc.Queue.P99 {
		t.Fatalf("HPCC q-p99 %.1f !< DCQCN %.1f", hp.Queue.P99/1024, dc.Queue.P99/1024)
	}
}

func TestFig12FlowControlChoices(t *testing.T) {
	if testing.Short() {
		t.Skip("load scenario: skipped in -short")
	}
	spec := topology.FatTreeSpec{Cores: 2, Aggs: 2, ToRs: 4, HostsPerToR: 4,
		HostRate: 100 * sim.Gbps, FabricRate: 400 * sim.Gbps, LinkDelay: sim.Microsecond}
	g := Fig12(spec, Scale{MaxFlows: 120, Until: 3 * sim.Millisecond, Drain: 12 * sim.Millisecond})
	if len(g.Results) != 2 || len(g.Results[0]) != 3 {
		t.Fatal("want 2 schemes × 3 modes")
	}
	// All runs must have delivered flows.
	for si := range g.Results {
		for mi := range g.Results[si] {
			lr := g.Results[si][mi]
			if len(lr.FCT.Records) == 0 {
				t.Fatalf("%s/%s: no completed flows", g.Rows[si], g.Cols[mi])
			}
		}
	}
	// HPCC avoids loss so well that lossy modes barely drop; DCQCN
	// without PFC must drop far more.
	hpccGBNDrops := g.Results[1][1].Drops
	dcqcnGBNDrops := g.Results[0][1].Drops
	if hpccGBNDrops >= dcqcnGBNDrops && dcqcnGBNDrops > 0 {
		t.Fatalf("HPCC-GBN drops %d !< DCQCN-GBN drops %d", hpccGBNDrops, dcqcnGBNDrops)
	}
}

func TestFig01PFCPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("load scenario: skipped in -short")
	}
	r := Fig01(10*sim.Millisecond, 1)
	if r.PFCFrames == 0 {
		t.Fatal("no PFC activity under the storm scenario")
	}
	if r.SuppressedBandwidthFrac <= 0 {
		t.Fatal("no host bandwidth suppression recorded")
	}
	// Propagation: pauses must reach past the receiver ToR (host
	// uplinks paused = senders silenced).
	if r.PauseTimeByTier["host->tor"] <= 0 {
		t.Fatal("pauses never propagated to host uplinks")
	}
}

func TestAblationEtaMaxStage(t *testing.T) {
	g := AblationEtaMaxStage(sim.Millisecond, 1)
	if len(g.Rows)*len(g.Cols) != 6 {
		t.Fatalf("cells = %d×%d, want 6", len(g.Rows), len(g.Cols))
	}
	for r, eta := range g.Rows {
		for c, stage := range g.Cols {
			run := g.Results[r][c]
			// Paper footnote 5: the whole region behaves well — near-zero
			// steady queues and high utilization.
			if q95 := run.Quantile(95) / 1024; q95 > 100 {
				t.Fatalf("eta=%s maxStage=%s: q95 = %.1f KB, want small", eta, stage, q95)
			}
			if tput := sum(run.Rates(run.Dur/2, run.Dur)); tput < 50 {
				t.Fatalf("eta=%s maxStage=%s: throughput %.1f Gbps too low", eta, stage, tput)
			}
		}
	}
}

func TestAblationINTQuantization(t *testing.T) {
	if testing.Short() {
		t.Skip("load scenario: skipped in -short")
	}
	g := AblationINTQuantization(Scale{MaxFlows: 120, Until: 3 * sim.Millisecond, Drain: 10 * sim.Millisecond})
	if len(g.Results) != 2 {
		t.Fatal("want 2 rows")
	}
	// Quantization must not change behaviour materially (same order of
	// magnitude of tail slowdown).
	full, wire := g.Results[0][0].FCT.SlowdownQuantile(95), g.Results[1][0].FCT.SlowdownQuantile(95)
	if wire > 3*full+1 {
		t.Fatalf("wire quantization changed p95 slowdown: %.2f vs %.2f", wire, full)
	}
}

func TestTheoryLemmaTable(t *testing.T) {
	tab := TheoryLemmaTable(50, 1)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[1][1] != "50/50" {
		t.Fatalf("Lemma (i) row = %q, want 50/50", tab.Rows[1][1])
	}
	if tab.Rows[2][1] != "50/50" {
		t.Fatalf("Lemma (iii) row = %q, want 50/50", tab.Rows[2][1])
	}
}

func TestTablesRender(t *testing.T) {
	var sb strings.Builder
	tab := &Table{Title: "t", Cols: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n %d", 7)
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== t ==", "a", "bb", "1", "2", "note: n 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	_ = workload.WebSearch
}
