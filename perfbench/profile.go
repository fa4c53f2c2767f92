package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// repoModule prefixes every repository package path. The benchmark
// itself is package main, whose frames are charged to the "bench" layer.
const repoModule = "encnvm/"

// knownLayers are the layers that get their own cpu_frac metric. A
// repository package outside this list is charged to "other".
var knownLayers = []string{
	"sim", "replay", "cache", "memctrl", "ctrenc", "nvm", "mem", "engines",
	"machine", "stats", "trace", "persist", "workloads", "crash", "verify",
	"prune", "check", "core", "runner", "perf", "bench", "other",
	"runtime", "unattributed",
}

// cellsLabel is the profiler label key whose value names a kind of
// cell; samples labelled largeLabel are also counted on their own.
const cellsLabel = "cells"

// profileShares counts a CPU profile's samples per layer, over all
// samples and over the samples labelled as large cells.
type profileShares struct {
	all, large map[string]int64
}

// attributeProfile charges every sample of a CPU profile (the gzipped
// protobuf runtime/pprof writes) to one layer: the package of the
// innermost frame that belongs to the repository. Samples with no
// repository frame are "runtime" when every frame is in the Go runtime
// (GC workers, the scheduler) and "unattributed" otherwise. The shares
// therefore account for every sample.
func attributeProfile(data []byte) (profileShares, error) {
	out := profileShares{all: map[string]int64{}, large: map[string]int64{}}
	prof, err := decodeProfile(data)
	if err != nil {
		return out, err
	}
	for _, s := range prof.samples {
		layer := prof.layerOf(s.locs)
		out.all[layer] += s.count
		for _, l := range s.labels {
			if prof.str(l[0]) == cellsLabel && prof.str(l[1]) == largeLabel {
				out.large[layer] += s.count
			}
		}
	}
	return out, nil
}

// layerOf picks the layer a stack (leaf first) is charged to.
func (p *pprofProfile) layerOf(locs []uint64) string {
	allRuntime := true
	for _, id := range locs {
		for _, fid := range p.locFuncs[id] {
			name := p.str(p.funcName[fid])
			if l, ok := repoLayer(name); ok {
				return l
			}
			if pkgOf(name) != "runtime" {
				allRuntime = false
			}
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "unattributed"
}

// repoLayer maps a function symbol to its repository layer.
func repoLayer(fn string) (string, bool) {
	pkg := pkgOf(fn)
	if pkg == "main" {
		return "bench", true
	}
	if !strings.HasPrefix(pkg, repoModule) {
		return "", false
	}
	base := path.Base(pkg)
	for _, l := range knownLayers {
		if l == base {
			return l, true
		}
	}
	return "other", true
}

// pkgOf extracts the package path from a Go function symbol such as
// "encnvm/internal/cache.(*Cache).Access" or
// "encnvm/internal/runner.Map[...].func1".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// pprofProfile is the part of the pprof protobuf the attribution reads.
type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type pprofSample struct {
	locs   []uint64   // leaf first
	count  int64      // first value: the sample count
	labels [][2]int64 // string labels: key and value string table indices
}

func (p *pprofProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSample    = 2
	profLocation  = 4
	profFunction  = 5
	profString    = 6
	sampleLocID   = 1
	sampleValue   = 2
	sampleLabel   = 3
	labelKey      = 1
	labelStr      = 2
	locID         = 1
	locLine       = 4
	lineFuncID    = 1
	funcID        = 1
	funcName      = 2
	wireVarint    = 0
	wireFixed64   = 1
	wireBytes     = 2
	wireFixed32   = 5
	gzipMagicHigh = 0x1f
	gzipMagicLow  = 0x8b
)

// decodeProfile parses a pprof profile, gzipped or not.
func decodeProfile(data []byte) (*pprofProfile, error) {
	if len(data) >= 2 && data[0] == gzipMagicHigh && data[1] == gzipMagicLow {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case profSample:
			s, err := decodeSample(b)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(b, func(num int, wt int, v uint64, _ []byte) error {
						if num == lineFuncID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// decodeSample reads a Sample message; its repeated fields may come
// packed or one value per field.
func decodeSample(b []byte) (pprofSample, error) {
	var s pprofSample
	var values []uint64
	err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
		var dst *[]uint64
		switch num {
		case sampleLocID:
			dst = &s.locs
		case sampleValue:
			dst = &values
		case sampleLabel:
			var l [2]int64
			err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case labelKey:
					l[0] = int64(v)
				case labelStr:
					l[1] = int64(v)
				}
				return nil
			})
			s.labels = append(s.labels, l)
			return err
		default:
			return nil
		}
		if wt == wireVarint {
			*dst = append(*dst, v)
			return nil
		}
		for len(b) > 0 {
			x, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad packed varint")
			}
			*dst = append(*dst, x)
			b = b[n:]
		}
		return nil
	})
	if len(values) > 0 {
		s.count = int64(values[0])
	}
	return s, err
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(num int, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}
