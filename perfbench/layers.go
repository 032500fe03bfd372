package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// layers are the repository's modules that CPU time and allocations are
// charged to, plus runtime for stacks with no wile/internal frame.
var layers = []string{
	"sim", "medium", "phy", "mac", "sta", "ap", "netstack", "crypto80211", "dot11",
	"core", "esp32", "ble", "meter", "energy", "obs", "experiment", "units", "engine",
	"runtime",
}

const internalPrefix = "wile/internal/"

// layerOf charges a stack of function names, innermost first, to the
// package of its innermost wile/internal frame, so standard-library code
// lands in the layer that called it. A stack with no such frame is
// charged to runtime.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			// rest reads "medium.(*Medium).Transmit", "engine.Map[...]" or
			// "analysis/analysistest.Run": the layer is its first element.
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "runtime"
}

// selfFunc is allocsByLayer's own frame: allocations made while reading
// the profile are the benchmark's, not the program's, and are left out.
const selfFunc = "main.allocsByLayer"

// allocsByLayer sums the heap profile's allocation counts by layer since
// program start. While runtime.MemProfileRate is 1 the profile counts every
// allocation except a tiny one (pointer-free, under 16 bytes) that the
// runtime packs into the block it is already filling.
func allocsByLayer() map[string]int64 {
	// The profile publishes an allocation two cycles after it happens.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[string]int64)
	var names []string
records:
	for i := range recs {
		names = names[:0]
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if f.Function == selfFunc {
				continue records
			}
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(names)] += recs[i].AllocObjects
	}
	return out
}

// cpuByLayer sums a gzipped pprof CPU profile's CPU nanoseconds by layer.
// Every sample is charged to exactly one layer.
func cpuByLayer(profile []byte) (map[string]int64, error) {
	samples, err := parseCPUProfile(profile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		out[layerOf(s.stack)] += s.nanos
	}
	return out, nil
}

// cpuSample is one CPU profile sample: its stack of function names,
// innermost first, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes the parts of a gzipped profile.proto message
// that the layer split reads: sample types, samples, locations, functions
// and the string table.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id → string index
		strs        []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendUints(s.locs, w, v, b)
				case 2:
					s.values, err = appendUints(s.values, w, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, cpuSample{stack, int64(s.values[cpu])})
	}
	return out, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// eachField calls fn for every field of the protobuf message msg with its
// number and wire type, and its value: v for varints, b for
// length-delimited fields.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case wireBytes:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case wireI64, wireI32:
			size := 8
			if wire == wireI32 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("short fixed-width field")
			}
			msg = msg[size:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends one element of a repeated varint field, which the
// encoder may write either packed or one value per field.
func appendUints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
