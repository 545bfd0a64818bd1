package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer attribution of a CPU profile, from outside the simulator.
//
// Each sample goes to exactly one bucket, so the shares sum to 1:
//
//   - runtime.gc:     any frame is a collector entry point (background
//     mark/sweep workers, assists, scavenger);
//   - runtime.malloc: otherwise, any frame is runtime.mallocgc — the
//     allocator's own time, whoever asked for the memory;
//   - <layer>:        otherwise, the innermost frame that belongs to a
//     simulator package names the layer. Standard-library and runtime
//     helpers (memmove, map access, sort, math/rand) therefore count
//     for the layer that called them: "self time" here is time in the
//     layer's own code plus non-simulator code it calls directly;
//   - unattributed:   no simulator frame on the stack (runtime
//     scheduler, the harness itself).

// profileLayers are the cpu_share buckets, in report order.
var profileLayers = []string{"sim", "packet", "fabric", "host", "cc", "workload", "topology", "stats", "experiment",
	"runtime.gc", "runtime.malloc", "unattributed"}

// gcEntryPoints are name prefixes (closures carry a .funcN suffix) of
// the collector's entry points.
var gcEntryPoints = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcMark", "runtime.gcStart",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
}

func isGC(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	for _, p := range gcEntryPoints {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOf maps a function name to its layer, or "" for non-simulator
// code. campaign and report fold into experiment: together they are the
// orchestration above a single run.
func layerOf(fn string) string {
	const prefix = "hpcc/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "campaign", "report":
		return "experiment"
	case "sim", "packet", "fabric", "host", "cc", "workload", "topology", "stats", "experiment":
		return pkg
	}
	return ""
}

// bucketOf classifies one sample's stack (function names, leaf first).
func bucketOf(stack []string) string {
	layer, malloc := "", false
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime.gc"
		}
		if fn == "runtime.mallocgc" {
			malloc = true
		}
		if layer == "" {
			layer = layerOf(fn)
		}
	}
	switch {
	case malloc:
		return "runtime.malloc"
	case layer != "":
		return layer
	}
	return "unattributed"
}

// foldProfile reads a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		shares[l] = 0
	}
	var total float64
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		shares[bucketOf(stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 { // a run shorter than the 10 ms sampling period
		shares["unattributed"] = 1
		return shares, nil
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// ---- minimal profile.proto reader -----------------------------------
//
// Only what attribution needs: Sample{location_id, value},
// Location{id, line.function_id}, Function{id, name} and the string
// table (github.com/google/pprof/proto/profile.proto). The standard
// library has no public reader and the repo takes no dependencies.

type sample struct {
	locs  []uint64
	value int64 // last sample type: cpu nanoseconds
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost inline first
}

type protoBuf struct{ b []byte }

var errTruncated = errors.New("truncated profile")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// field reads one field header and its payload: v for varint fields,
// data for length-delimited ones. Fixed-width fields are skipped.
func (p *protoBuf) field() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(p.b) < n {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[n:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return
		}
		if uint64(len(p.b)) < n {
			return 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		err = fmt.Errorf("unsupported wire type %d", key&7)
	}
	return
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	pb := protoBuf{data}
	for len(pb.b) > 0 {
		x, err := pb.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	var (
		strs     []string
		funcName = map[uint64]uint64{}   // function id → string index
		locFns   = map[uint64][]uint64{} // location id → function ids
		out      = &profile{locFuncs: map[uint64][]string{}}
	)
	top := protoBuf{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		msg := protoBuf{data}
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					values, err = repeated(values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			out.samples = append(out.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					line := protoBuf{d}
					for len(line.b) > 0 {
						ln, lv, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				n, v, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for id, fns := range locFns {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			idx := funcName[f]
			if idx >= uint64(len(strs)) {
				return nil, fmt.Errorf("function %d names string %d of %d", f, idx, len(strs))
			}
			names = append(names, strs[idx])
		}
		out.locFuncs[id] = names
	}
	return out, nil
}
