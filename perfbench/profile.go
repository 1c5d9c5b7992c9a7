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

// layerCPU decodes a runtime/pprof CPU profile and sums its sampled CPU
// nanoseconds by layer. A sample belongs to the layer of its innermost
// repository frame, so runtime work such as allocation or map access is
// charged to the code that asked for it. Samples taken inside a
// coroutine switch before any repository frame count as "coroswitch";
// samples with no repository frame count as "gc" when a garbage-collector
// frame is on the stack and "other" otherwise.
func layerCPU(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if len(s.values) < 2 {
			return nil, errors.New("cpu profile: sample without a cpu/nanoseconds value")
		}
		var frames []frame
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				frames = append(frames, p.funcs[fid])
			}
		}
		out[classify(frames)] += s.values[1]
	}
	return out, nil
}

type frame struct{ name, file string }

func classify(frames []frame) string {
	for _, f := range frames {
		if strings.Contains(f.name, "coroswitch") {
			return "coroswitch"
		}
		if strings.HasPrefix(f.name, "hurricane/") {
			return layerOfFile(f.file)
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f.name, "runtime.gc") || strings.HasPrefix(f.name, "runtime.bgsweep") ||
			strings.HasPrefix(f.name, "runtime.bgscavenge") {
			return "gc"
		}
	}
	return "other"
}

// layerOfFile maps a source file to the layer names the per-layer
// metrics use. The sim package splits into the engine and the memory
// model; trace emission lives with the trace layer, online placement with
// the autonomics plane, and the kernel's hybrid tables with the kernel.
func layerOfFile(file string) string {
	i := strings.LastIndex(file, "internal/")
	if i < 0 {
		return "other"
	}
	rel := file[i+len("internal/"):]
	dir, base := rel, ""
	if j := strings.LastIndex(rel, "/"); j >= 0 {
		dir, base = rel[:j], rel[j+1:]
	}
	switch dir {
	case "sim":
		switch base {
		case "memory.go", "resource.go":
			return "mem"
		case "tracer.go":
			return "trace"
		}
		return "sim"
	case "locks", "cluster", "workload", "trace", "autonomic", "tune":
		return dir
	case "kernel", "hybrid":
		return "kernel"
	case "trace/placement":
		return "autonomic"
	}
	return "other"
}

// profile is the subset of the pprof protobuf the attribution needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]frame
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]frame)}
	var strs []string
	type fn struct{ id, name, file uint64 }
	var fns []fn
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return eachVarint(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return eachVarint(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var lines []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							lines = append(lines, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = lines
			return err
		case profFunction:
			var f fn
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					f.id = v
				case functionName:
					f.name = v
				case functionFilename:
					f.file = v
				}
				return nil
			})
			fns = append(fns, f)
			return err
		case profStringTable:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range fns {
		if f.name >= uint64(len(strs)) || f.file >= uint64(len(strs)) {
			return nil, errors.New("function names a string out of range")
		}
		p.funcs[f.id] = frame{name: strs[f.name], file: strs[f.file]}
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint field's value, data a length-delimited field's bytes (data is nil
// for varints). Fixed-width fields are skipped; the profile has none the
// attribution reads.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated varint field in either encoding: one value
// per field (data nil) or packed into one length-delimited field.
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
