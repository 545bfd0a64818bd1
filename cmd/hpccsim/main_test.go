package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpcc"
)

// TestMain runs the command itself instead of the tests when
// TestNonFiniteLoadExitsOne re-executes the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("HPCCSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// -load NaN is an error: exit status 1 and one line on stderr.
func TestNonFiniteLoadExitsOne(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-load", "NaN", "-flows", "10", "-duration", "1ms", "-drain", "1ms")
	cmd.Env = append(os.Environ(), "HPCCSIM_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("hpccsim -load NaN: %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if lines := strings.Split(strings.TrimSpace(stderr.String()), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "load NaN") {
		t.Errorf("stderr %q, want one line naming load NaN", stderr.String())
	}
}

// parse maps a command line onto its Experiment the way main does.
func parse(t *testing.T, args ...string) (hpcc.Experiment, error) {
	t.Helper()
	fs := flag.NewFlagSet("hpccsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return o.experiment()
}

// The flag defaults plus -incast describe the same Experiment on each
// topology, up to the incast's fan-in: 16 on the 32-server Pod, 60 on
// the FatTree.
func TestIncastExperiment(t *testing.T) {
	lossless := true
	want := func(topo hpcc.Topology, fanIn int) hpcc.Experiment {
		return hpcc.Experiment{
			Scheme:   "hpcc",
			Topology: topo,
			Traffic: []hpcc.Traffic{
				hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.3},
				hpcc.Incast{FanIn: fanIn, FlowSizeBytes: 500_000, LoadFraction: 0.02},
			},
			Horizon:  20 * time.Millisecond,
			Drain:    30 * time.Millisecond,
			MaxFlows: 1000,
			Lossless: &lossless,
			Seed:     1,
		}
	}
	for _, c := range []struct {
		args []string
		want hpcc.Experiment
	}{
		{[]string{"-topo", "pod", "-incast"}, want(hpcc.Pod{}, 16)},
		{[]string{"-topo", "fattree", "-incast"}, want(hpcc.FatTree{}, 60)},
	} {
		got, err := parse(t, c.args...)
		if err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q:\n got %+v\nwant %+v", c.args, got, c.want)
		}
	}
	got, err := parse(t, "-topo", "fattree", "-paper-scale")
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology != hpcc.PaperFatTree() {
		t.Errorf("-paper-scale built %+v, want PaperFatTree()", got.Topology)
	}
}

// Every value outside the flags' documented choices is an error, and so
// is -paper-scale on anything but the FatTree. The scheme is checked by
// Experiment itself, before anything is built.
func TestRunValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-topo", "nope"}, `unknown topology "nope"`},
		{[]string{"-topo", ""}, `unknown topology ""`},
		{[]string{"-workload", "nope"}, `unknown workload "nope"`},
		{[]string{"-workload", ""}, `unknown workload ""`},
		{[]string{"-scheme", "nope"}, `unknown scheme "nope"`},
		{[]string{"-paper-scale"}, `needs Topology "fattree", got "pod"`},
		{[]string{"-paper-scale", "-topo", "pod"}, `needs Topology "fattree", got "pod"`},
	} {
		exp, err := parse(t, c.args...)
		if err == nil {
			_, err = exp.Start()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want one containing %s", c.args, err, c.want)
		}
	}
}

// -cpuprofile and -memprofile each leave a non-empty gzip-framed pprof
// profile behind a tiny run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	cmd := exec.Command(os.Args[0], "-cpuprofile", cpu, "-memprofile", mem,
		"-flows", "20", "-duration", "1ms", "-drain", "1ms")
	cmd.Env = append(os.Environ(), "HPCCSIM_RUN_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("hpccsim: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
			t.Fatalf("%s: %d bytes of profile, %v; want a non-empty gzip stream", filepath.Base(path), n, err)
		}
	}
}
