package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile with the standard library
// alone — the format is a gzip-compressed protocol buffer (the pprof
// profile.proto schema) — and attributes each sample to one of the
// repository's layers by the package of its leaf frame.

// profSample is one stack of a CPU profile: function names leaf first,
// with inlined frames expanded, and the stack's sample count.
type profSample struct {
	stack []string
	count int64
}

// layers is the fixed set of CPU-share buckets, in report order. Each is
// reported as the metric "cpu.<layer>".
var layers = []string{
	"sim", "topo", "queue", "packet", "core", "transport", "cc", "fluid",
	"ratelimit", "workload", "stats", "service", "control", "experiments",
	"encoding", "net", "gc", "runtime", "other",
}

// repoLayers maps a package under aqueue/internal/ to its layer. Packages
// not listed fall into "other".
var repoLayers = map[string]string{
	"sim": "sim", "topo": "topo", "queue": "queue", "packet": "packet",
	"core": "core", "transport": "transport", "cc": "cc", "fluid": "fluid",
	"ratelimit": "ratelimit", "workload": "workload", "stats": "stats",
	"trace": "stats", "service": "service", "control": "control",
	"experiments": "experiments", "harness": "experiments",
}

// packageOf returns the import path of a pprof function name such as
// "aqueue/internal/sim.(*Engine).down" or "runtime.mallocgc": everything
// before the first '.' that follows the last '/'.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isGCFrame reports whether a runtime function belongs to the garbage
// collector: mark workers and assists, sweeping, scavenging, write
// barriers, and the profiler's own "_GC" pseudo-frame.
func isGCFrame(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.GC") ||
		strings.HasPrefix(fn, "gcWriteBarrier") {
		return true
	}
	switch fn {
	case "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.deductSweepCredit":
		return true
	}
	return false
}

// layerOf attributes one stack (leaf first) to a layer. The leaf frame's
// package decides, except that a runtime leaf under a garbage-collector
// frame counts as "gc" rather than "runtime". System calls count as
// "net", the event trace ring as "stats" (both are telemetry).
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := packageOf(stack[0])
	switch {
	case isGCFrame(stack[0]):
		return "gc"
	case pkg == "internal/runtime/syscall":
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, fn := range stack {
			if isGCFrame(fn) {
				return "gc"
			}
		}
		return "runtime"
	case strings.HasPrefix(pkg, "aqueue/internal/"):
		if l, ok := repoLayers[strings.TrimPrefix(pkg, "aqueue/internal/")]; ok {
			return l
		}
		return "other"
	case strings.HasPrefix(pkg, "encoding/"):
		return "encoding"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "net"
	}
	return "other"
}

// layerShares returns each layer's percentage of the samples. Every layer
// of layers is present; all are 0 when there are no samples.
func layerShares(samples []profSample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for l := range out {
			out[l] = 100 * out[l] / float64(total)
		}
	}
	return out
}

// parseProfile decodes a pprof profile (gzip-compressed or raw protobuf)
// into its samples. The sample count is the first value of each sample,
// which for a CPU profile is the number of SIGPROF ticks.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		strs    []string
		raws    []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnNames = map[uint64]int64{}    // function id -> string table index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, packed or not
					return eachVarint(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // value, packed or not; keep the first
					return eachVarint(wire, v, b, func(x uint64) {
						if first {
							s.value, first = int64(x), false
						}
					})
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(raws))
	for _, r := range raws {
		var stack []string
		for _, loc := range r.locs {
			for _, fid := range locFns[loc] {
				name := ""
				if i := fnNames[fid]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				stack = append(stack, name)
			}
		}
		out = append(out, profSample{stack: stack, count: r.value})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, plus its varint value (wire type 0) or its
// payload bytes (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values: one value for the
// unpacked form (wire type 0), every value of the payload for the packed
// form (wire type 2).
func eachVarint(wire int, v uint64, payload []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		payload = payload[n:]
	}
	return nil
}
