package experiment

import (
	"strings"
	"testing"

	"hpcc/internal/sim"
	"hpcc/internal/topology"
)

// TestAllTablesRender drives every figure's table formatter on
// miniature runs — the rendering paths otherwise only execute inside
// cmd/hpccexp.
func TestAllTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("renders several scaled-down load scenarios")
	}
	var sb strings.Builder
	sc := Scale{MaxFlows: 60, Until: 2 * sim.Millisecond, Drain: 8 * sim.Millisecond, Seed: 1}
	spec := topology.FatTreeSpec{Cores: 2, Aggs: 2, ToRs: 2, HostsPerToR: 4,
		HostRate: 100 * sim.Gbps, FabricRate: 400 * sim.Gbps, LinkDelay: sim.Microsecond}

	Fig01(3*sim.Millisecond, 1).Table().Fprint(&sb)
	for _, tb := range fig02Tables(Fig02(sc)) {
		tb.Fprint(&sb)
	}
	for _, tb := range fig03Tables(Fig03(sc)) {
		tb.Fprint(&sb)
	}
	fig06Table(Fig06(100*sim.Microsecond, 1)).Fprint(&sb)
	fig09LongShortTable(Fig09LongShort(sim.Millisecond, 1)).Fprint(&sb)
	fig09IncastTable(Fig09Incast(2*sim.Millisecond, 1)).Fprint(&sb)
	fig09MiceTable(Fig09Mice(2*sim.Millisecond, 1)).Fprint(&sb)
	fig09FairnessTable(Fig09Fairness(sim.Millisecond, 1)).Fprint(&sb)
	for _, tb := range fig10Tables(Fig10(sc)) {
		tb.Fprint(&sb)
	}
	for _, tb := range fig11Tables(Fig11(spec, sc), fanIn(spec, 4)) {
		tb.Fprint(&sb)
	}
	for _, tb := range fig12Tables(Fig12(spec, sc)) {
		tb.Fprint(&sb)
	}
	for _, tb := range fig13Tables(Fig13(100*sim.Microsecond, 1)) {
		tb.Fprint(&sb)
	}
	fig14Table(Fig14([]float64{50}, sim.Millisecond, 1)).Fprint(&sb)
	etaMaxStageTable(AblationEtaMaxStage(500*sim.Microsecond, 1)).Fprint(&sb)
	for _, tb := range quantizeTables(AblationINTQuantization(sc)) {
		tb.Fprint(&sb)
	}
	TheoryLemmaTable(10, 1).Fprint(&sb)

	out := sb.String()
	for _, want := range []string{
		"Figure 1", "Figure 2a", "Figure 2b", "Figure 3a", "Figure 3b",
		"Figure 6", "Figure 9a", "Figure 9c", "Figure 9e", "Figure 9g",
		"Figure 10a", "Figure 11a", "Figure 12", "Figure 13a", "Figure 14",
		"Ablation", "Appendix A.2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Fatal("rendered output contains NaN")
	}
}

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
