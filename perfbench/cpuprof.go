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

// internalPrefix marks the repository's own packages in symbol names.
const internalPrefix = "fluxpower/internal/"

// cpuAttribution is a CPU profile folded by layer: each sample is
// charged to the innermost frame that belongs to a fluxpower/internal
// package (inlined frames included), or to "other" when the stack has
// none (runtime background work, the benchmark itself). Layers reachable
// only from inside the program — broker routing, tsdb appends, powermgr
// handlers — show up here although the benchmark never calls them.
type cpuAttribution struct {
	Total   int64
	ByLayer map[string]int64
}

// Frac returns each layer's share of all samples.
func (a *cpuAttribution) Frac() map[string]float64 {
	out := map[string]float64{}
	for k, v := range a.ByLayer {
		if a.Total > 0 {
			out[k] = float64(v) / float64(a.Total)
		}
	}
	return out
}

// layerOf maps a symbol such as
// "fluxpower/internal/flux/broker.(*Broker).routeEvent" to its package's
// last path element ("broker"), or "" for symbols outside the repository.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i] // generic instantiations may contain dots and slashes
	}
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attributeProfile decodes a gzipped pprof CPU profile (profile.proto)
// and folds it by layer.
func attributeProfile(gz []byte) (*cpuAttribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// Resolve each location to the layer of its innermost internal frame.
	locLayer := map[uint64]string{}
	for id, fnIDs := range p.locFuncs {
		for _, f := range fnIDs { // innermost (inlined) first
			if l := layerOf(p.strings[p.funcName[f]]); l != "" {
				locLayer[id] = l
				break
			}
		}
	}
	out := &cpuAttribution{ByLayer: map[string]int64{}}
	for _, s := range p.samples {
		layer := "other"
		for _, loc := range s.locs { // leaf first
			if l, ok := locLayer[loc]; ok {
				layer = l
				break
			}
		}
		out.ByLayer[layer] += s.count
		out.Total += s.count
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

// decodeProfile reads the fields of profile.proto the attribution needs:
// sample (2), location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 2:
			s, err := decodeSample(sub)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside string table")
		}
	}
	return p, nil
}

// decodeSample reads location_id (1) and the first value (2), each
// either packed or repeated.
func decodeSample(b []byte) (profSample, error) {
	var s profSample
	var values []int64
	err := eachField(b, func(num, wire int, v uint64, sub []byte) error {
		var vals []uint64
		if wire == 2 {
			for len(sub) > 0 {
				x, n := binary.Uvarint(sub)
				if n <= 0 {
					return errors.New("bad packed varint")
				}
				vals = append(vals, x)
				sub = sub[n:]
			}
		} else {
			vals = []uint64{v}
		}
		switch num {
		case 1:
			s.locs = append(s.locs, vals...)
		case 2:
			for _, x := range vals {
				values = append(values, int64(x))
			}
		}
		return nil
	})
	if len(values) > 0 {
		s.count = values[0]
	}
	return s, err
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) or payload (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
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
				return errors.New("bad length-delimited field")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
