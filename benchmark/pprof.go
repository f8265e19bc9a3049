package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A small decoder for the CPU profile runtime/pprof writes (gzip-compressed
// protobuf, perftools.profiles.Profile), enough to fold samples by layer. It
// keeps the module free of dependencies; `go tool pprof` reads the same bytes.

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	v    uint64 // varint and fixed values
	b    []byte // length-delimited payload
}

var errProto = errors.New("malformed profile")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// fields splits a message into its fields.
func fields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, b, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return nil, errProto
			}
			f.b, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated varint field in either encoding: packed (one
// length-delimited run) or one field per value.
func varints(f protoField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// layerOfPackage maps a package path to the cpu_share layer it belongs to,
// or "" for packages that are attributed to their caller (topology,
// machine, trace, the standard library, the runtime).
func layerOfPackage(pkg string) string {
	switch pkg {
	case "cafteams/internal/sim":
		return "sim"
	case "cafteams/internal/pgas":
		return "pgas"
	case "cafteams/internal/coll":
		return "coll"
	case "cafteams/internal/core":
		return "core"
	case "cafteams/internal/team":
		return "team"
	case "cafteams/caf":
		return "caf"
	case "cafteams/internal/cluster":
		return "cluster"
	case "cafteams/internal/hpl", "cafteams/internal/linalg":
		return "hpl"
	case "main", "cafteams/benchmark":
		return "bench"
	}
	return ""
}

// packageOf extracts the package path from a symbol name such as
// "cafteams/internal/coll.AllreduceRD[go.shape.float64]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// runtimeBucket classifies a stack with no layer frame in it: background
// garbage collection, memory management, or the scheduler and everything
// else the runtime does on its own stacks.
func runtimeBucket(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.Contains(fn, "gcBgMarkWorker"), strings.Contains(fn, "gcDrain"),
			strings.Contains(fn, "gcMark"), strings.Contains(fn, "gcAssist"),
			strings.Contains(fn, "runtime.gcStart"), strings.Contains(fn, "scanobject"):
			return "go_gc"
		case strings.Contains(fn, "bgsweep"), strings.Contains(fn, "bgscavenge"),
			strings.Contains(fn, "sweepone"), strings.Contains(fn, "(*mheap)"),
			strings.Contains(fn, "(*pageAlloc)"), strings.Contains(fn, "sysUnused"),
			strings.Contains(fn, "sysUsed"), strings.Contains(fn, "mallocgc"),
			strings.Contains(fn, "stackalloc"), strings.Contains(fn, "stackfree"),
			strings.Contains(fn, "malg"), strings.Contains(fn, "gfput"), strings.Contains(fn, "gdestroy"):
			return "go_mem"
		}
	}
	return "go_sched"
}

// cpuShares folds a CPU profile into the share of samples per layer: a
// sample belongs to the package of its innermost frame that is in a layer
// (so memmove under pgas.Put is pgas, mallocgc under coll is coll), and to a
// runtime bucket when no frame is.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	var strtab []string
	funcName := map[uint64]uint64{}   // function id → string index
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	type sample struct {
		locs  []uint64
		count uint64
	}
	var samples []sample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 6:
			strtab = append(strtab, string(f.b))
		case 5: // Function{id=1, name=2}
			fs, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.v
				case 2:
					name = x.v
				}
			}
			funcName[id] = name
		case 4: // Location{id=1, line=4{function_id=1}}
			fs, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.v
				case 4:
					ls, err := fields(x.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2: // Sample{location_id=1, value=2}
			fs, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					if s.locs, err = varints(x, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = varints(x, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = vals[0] // samples; vals[1] is the same in nanoseconds
			}
			samples = append(samples, s)
		}
	}

	counts := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcName[fid]; idx < uint64(len(strtab)) {
					stack = append(stack, strtab[idx])
				}
			}
		}
		layer := ""
		for _, fn := range stack {
			if layer = layerOfPackage(packageOf(fn)); layer != "" {
				break
			}
		}
		if layer == "" {
			layer = runtimeBucket(stack)
		}
		counts[layer] += float64(s.count)
		total += float64(s.count)
	}
	for k := range counts { // none when the profiled stretch was too short for a sample
		counts[k] /= total
	}
	return counts, nil
}
