package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// The module has no external dependencies, so this file decodes the
// gzipped protobuf that runtime/pprof writes with a minimal hand-rolled
// reader instead of github.com/google/pprof. Only the fields needed to
// attribute CPU samples to functions are read.

// Field numbers from the pprof profile.proto schema.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// stackSample is one CPU profile sample: the CPU time it stands for and
// its stack as function names, innermost frame first (inlined frames
// included).
type stackSample struct {
	cpu   time.Duration
	stack []string
}

// cpuSamples decodes a CPU profile written by runtime/pprof.
func cpuSamples(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample

	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profStrings:
			strs = append(strs, string(b))
		case profFunction:
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return fields(lb, func(ln int, lv uint64, _ []byte) error {
						if ln == lineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profSample:
			var s rawSample
			err := fields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case sampleLocation:
					s.locs = appendVarints(s.locs, v, pb)
				case sampleValue:
					s.values = appendVarints(s.values, v, pb)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			continue // a CPU profile has [samples/count, cpu/nanoseconds]
		}
		ss := stackSample{cpu: time.Duration(s.values[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. When a
// length-delimited field holds a packed repeated varint, b carries the
// packing; appendVarints unpacks both encodings.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0: // varint
			v, n := varint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5: // fixed32
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one unpacked
// value v, or every value packed into b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// varint decodes one base-128 varint, returning its value and length
// (0 when b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOf names the module a CPU sample's time belongs to: the innermost
// frame in a repro/internal package, or "runtime" when the innermost
// frame is the Go runtime (allocation, GC, maps, scheduling). Frames in
// other standard-library packages (hashing, sorting) count toward the
// module that called them; a sample with no module frame at all counts
// as "other".
func layerOf(stack []string) string {
	for i, fn := range stack {
		pkg := funcPackage(fn)
		if i == 0 && (pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "runtime/")) {
			return "runtime"
		}
		if mod, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
			return mod
		}
	}
	return "other"
}

// funcPackage returns the import path of a fully qualified function name
// such as "repro/internal/netsim.(*Port).Send".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
