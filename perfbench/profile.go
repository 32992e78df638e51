package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The decoder below reads the
// handful of fields the layer table needs — samples with their stacks and
// labels, locations, functions and the string table — so the benchmark
// stays on the standard library.

// Field numbers of profile.proto used here.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2
	sampleLabel      = 3

	labelKey = 1
	labelStr = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

type pbField struct {
	num   int
	wire  int
	value uint64 // varint payload
	data  []byte // length-delimited payload
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, errors.New("truncated field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return nil, errors.New("truncated varint")
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errors.New("truncated bytes field")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarint decodes one varint, returning its length (0 when truncated).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbInts returns the integers of a repeated scalar field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errors.New("truncated packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// profSampleRec is one decoded profile sample.
type profSampleRec struct {
	locs   []uint64
	count  int64
	labels [][2]int64 // (key, value) string-table indices
}

// moduleShares reports the self-time share of each module in a gzipped CPU
// profile, counting only samples whose pprof label key equals value (all
// samples when key is empty). A sample belongs to the innermost stack frame
// inside this module tree: calls into the runtime or the standard library
// (allocation, memmove, math/rand) count towards the layer that made them.
// Samples with no such frame are attributed to "other". It returns the
// shares and the number of samples counted.
func moduleShares(gz []byte, key, value string) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		samples []profSampleRec
		locFns  = map[uint64][]uint64{} // location -> function IDs, innermost first
		fnName  = map[uint64]int64{}    // function -> string index
	)
	for _, f := range top {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.data))
		case profSample:
			s, err := decodeSample(f.data)
			if err != nil {
				return nil, 0, err
			}
			samples = append(samples, s)
		case profLocation:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, 0, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case locationID:
					id = lf.value
				case locationLine:
					ls, err := pbFields(lf.data)
					if err != nil {
						return nil, 0, err
					}
					for _, l := range ls {
						if l.num == lineFunctionID {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFns[id] = fns
		case profFunction:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, 0, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case functionID:
					id = ff.value
				case functionName:
					name = int64(ff.value)
				}
			}
			fnName[id] = name
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		if key != "" && !hasLabel(s.labels, str, key, value) {
			continue
		}
		mod := "other"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if m := moduleOf(str(fnName[fn])); m != "" {
					mod = m
					break stack
				}
			}
		}
		counts[mod] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for m, c := range counts {
		shares[m] = float64(c) / float64(total)
	}
	return shares, total, nil
}

// hasLabel reports whether a sample carries the string label key=value.
func hasLabel(labels [][2]int64, str func(int64) string, key, value string) bool {
	for _, l := range labels {
		if str(l[0]) == key && str(l[1]) == value {
			return true
		}
	}
	return false
}

func decodeSample(b []byte) (profSampleRec, error) {
	fs, err := pbFields(b)
	if err != nil {
		return profSampleRec{}, err
	}
	var s profSampleRec
	for _, f := range fs {
		switch f.num {
		case sampleLocationID:
			ids, err := pbInts(f)
			if err != nil {
				return s, err
			}
			s.locs = append(s.locs, ids...)
		case sampleValue:
			vs, err := pbInts(f)
			if err != nil {
				return s, err
			}
			if s.count == 0 && len(vs) > 0 {
				s.count = int64(vs[0]) // first value type: samples
			}
		case sampleLabel:
			ls, err := pbFields(f.data)
			if err != nil {
				return s, err
			}
			var kv [2]int64
			for _, l := range ls {
				switch l.num {
				case labelKey:
					kv[0] = int64(l.value)
				case labelStr:
					kv[1] = int64(l.value)
				}
			}
			s.labels = append(s.labels, kv)
		}
	}
	return s, nil
}

// moduleOf maps a fully qualified function name to its layer: the package
// under mlnoc/internal, "bench" for this benchmark's own code, or "" for
// code outside the module (runtime, standard library).
func moduleOf(fn string) string {
	const internal = "mlnoc/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	// A built binary names this package main; its test binary uses the
	// import path.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "mlnoc/perfbench.") {
		return "bench"
	}
	return ""
}
