package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
)

// layers lists the repository layers the CPU profile is split into,
// plus kernels (kernel bodies the benchmark registers) and other (the
// benchmark's own load and bookkeeping code, the app/matmul DAG
// generators and the Go scheduler).
var layers = []string{
	"http", "serve", "core", "timesim", "trace", "metrics", "telemetry",
	"health", "coi", "fabric", "blas", "kernels", "gc", "other",
}

// pkgLayer maps a package path to the layer that owns it. Standard
// packages that only carry HTTP traffic belong to http; every other
// package not listed (runtime, sync, encoding/json, ...) is charged to
// the nearest caller that is listed.
var pkgLayer = map[string]string{
	"net/http":                    "http",
	"net/http/internal":           "http",
	"net":                         "http",
	"net/textproto":               "http",
	"internal/poll":               "http",
	"syscall":                     "http",
	"hstreams/internal/serve":     "serve",
	"hstreams/internal/core":      "core",
	"hstreams/internal/timesim":   "timesim",
	"hstreams/internal/trace":     "trace",
	"hstreams/internal/metrics":   "metrics",
	"hstreams/internal/telemetry": "telemetry",
	"hstreams/internal/health":    "health",
	"hstreams/internal/coi":       "coi",
	"hstreams/internal/fabric":    "fabric",
	"hstreams/internal/blas":      "blas",
	"hstreams/internal/kernels":   "blas",
}

// gcFrames are runtime functions through which a sample belongs to
// garbage collection or allocation.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.GC", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.sweepone", "runtime.(*mheap)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*sweepLocked)",
}

// benchPkg is how this program's own package appears in profiles:
// "main" in the built program, the module path in a test binary.
var benchPkg = funcPackage(runtime.FuncForPC(reflect.ValueOf(kernelFill).Pointer()).Name())

// funcPackage returns the package path of a fully qualified Go
// function name such as "hstreams/internal/core.(*Runtime).finish".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frameLayer returns the layer owning one frame, or "" if the frame's
// package is charged to its caller.
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "hstreams/internal/core" && strings.Contains(fn, "(*simExec)"):
		return "timesim" // core's Sim executor drives the virtual clock
	case pkg == benchPkg && strings.HasPrefix(fn[len(pkg):], ".kernel"):
		return "kernels"
	case pkg == benchPkg:
		return "other"
	}
	return pkgLayer[pkg]
}

// stackLayer attributes one sample, given its stack leaf first. Runtime
// frames above the leaf that pass through an allocation or collection
// entry point make it gc; otherwise the first frame owned by a layer
// takes it.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if funcPackage(fn) != "runtime" {
			break
		}
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// layerNanos decodes a CPU profile as written by runtime/pprof and
// returns the sampled CPU nanoseconds charged to each layer.
func layerNanos(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	valueIdx := p.nTypes - 1 // cpu nanoseconds follow the sample count
	byLayer := make(map[string]float64)
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		byLayer[stackLayer(stack)] += float64(s.values[valueIdx])
	}
	return byLayer, nil
}

// profile is the part of a pprof profile the layer split needs.
type profile struct {
	nTypes  int
	samples []sample
	// locFuncs holds each location's function ids, innermost inlined
	// function first.
	locFuncs  map[uint64][]uint64
	funcNames map[uint64]int64
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile reads the fields of the pprof protobuf message
// (github.com/google/pprof/proto/profile.proto) that layerNanos uses:
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 1:
			p.nTypes++
		case 2:
			var s sample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendUvarints(&s.locs, v, m)
				case 2:
					var vs []uint64
					if err := appendUvarints(&vs, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unknown wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field that arrived either
// as one unpacked value (msg nil) or as a packed run.
func appendUvarints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}
