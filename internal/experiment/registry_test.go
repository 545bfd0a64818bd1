package experiment

import (
	"strings"
	"testing"

	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/sim"
	"hpcc/internal/workload"
)

// Every figure/ablation of the old CLI switch must be in the
// catalogue, once each and in canonical order, and the extra scenarios
// ride the same interface.
func TestRegistryCoversAllFigures(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig6",
		"fig9-longshort", "fig9-incast", "fig9-mice", "fig9-fairness",
		"fig10", "fig11", "fig12", "fig13", "fig14",
		"ablations-eta", "ablations-quant", "theory",
		"extra-fbsweep", "extra-parkinglot",
		"extra-hadoop-incast", "extra-rpc-fattree",
	}
	var got []string
	for _, s := range All() {
		got = append(got, s.Name)
		if s.Title == "" {
			t.Errorf("%s: empty title", s.Name)
		}
		if s.Run == nil {
			t.Errorf("%s: nil Run", s.Name)
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("registry = %v\nwant      %v", got, want)
	}
}

func TestRegistryMatch(t *testing.T) {
	names := func(sel ...string) string {
		scens, err := Match(sel)
		if err != nil {
			t.Fatalf("Match(%v): %v", sel, err)
		}
		var out []string
		for _, s := range scens {
			out = append(out, s.Name)
		}
		return strings.Join(out, " ")
	}
	if got := names("fig6"); got != "fig6" {
		t.Fatalf("exact match = %q", got)
	}
	// Family prefix selects every member.
	if got := names("fig9"); got != "fig9-longshort fig9-incast fig9-mice fig9-fairness" {
		t.Fatalf("family match = %q", got)
	}
	if got := names("ablations"); got != "ablations-eta ablations-quant" {
		t.Fatalf("ablations family = %q", got)
	}
	// Globs.
	if got := names("fig1*"); !strings.Contains(got, "fig12") || strings.Contains(got, "fig9") {
		t.Fatalf("glob match = %q", got)
	}
	// Duplicates collapse; canonical order is kept regardless of
	// selector order.
	if got := names("fig10", "fig6", "fig10"); got != "fig6 fig10" {
		t.Fatalf("dedup/order = %q", got)
	}
	if got := names("all"); len(strings.Fields(got)) != len(All()) {
		t.Fatalf("all = %q", got)
	}
	if _, err := Match([]string{"nope"}); err == nil {
		t.Fatal("accepted unknown selector")
	}
	if _, err := Match([]string{"[bad"}); err == nil {
		t.Fatal("accepted malformed glob")
	}
}

// The parking-lot topology spec must build, carry load, and report a
// sane base RTT (used by both the catalogued scenario and the public
// API).
func TestParkingLotTopo(t *testing.T) {
	topo := ParkingLotTopo(3, fig9Rate)
	nw := topo.Build(sim.NewEngine(), host.Config{}, fabric.SwitchConfig{})
	if nw.BaseRTT <= nw.Hosts[0].Ports()[0].Delay() {
		t.Fatal("parking-lot base RTT not derived from chain length")
	}
	r := runLoadT(t, LoadScenario{
		Scheme:   ByNameMust("hpcc"),
		Topo:     topo,
		Traffic:  []workload.Generator{workload.PoissonSpec{CDF: workload.FBHadoop(), Load: 0.3}},
		MaxFlows: 60,
		Until:    2 * sim.Millisecond,
		Drain:    8 * sim.Millisecond,
		PFC:      true,
		Seed:     1,
	})
	if len(r.FCT.Records) == 0 {
		t.Fatal("no flows completed on the parking lot")
	}
}
