package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedRE matches a fused multiply-add in the compiler's arm64 assembly
// listing, capturing the source position and the instruction.
var fusedRE = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[SD])\b`)

// TestNoFusedMultiplyAdd extends determinism across machines. The Go
// spec lets a compiler fuse x*y + z into one multiply-add, rounded once
// where amd64 rounds twice, unless a float64(…) conversion rounds the
// product; so a fused site prints different digests on arm64 than on
// amd64, which never fuses. arm64 fuses wherever the spec allows (the
// ppc64le sites are a subset of its own), so its assembly of every
// package outside bench/ must hold no fused instruction.
func TestNoFusedMultiplyAdd(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	list := exec.Command("go", "list", "./...")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	args := []string{"build", "-o", os.DevNull, "-gcflags=hpcc/...=-S"}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg != "hpcc/bench" && !strings.HasPrefix(pkg, "hpcc/bench/") {
			args = append(args, pkg)
		}
	}
	build := exec.Command("go", args...)
	build.Dir = root
	build.Env = append(os.Environ(), "GOARCH=arm64")
	out, err = build.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build: %v\n%s", err, out)
	}
	for _, m := range fusedRE.FindAllStringSubmatch(string(out), -1) {
		t.Errorf("%s: %s on arm64; round the product with float64(…)", strings.TrimPrefix(m[1], root+string(filepath.Separator)), m[2])
	}
}
