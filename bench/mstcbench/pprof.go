package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzip'd profile.proto that runtime/pprof writes and
// attributes each CPU sample to a layer, without the go tool: the
// benchmark's only dependency is the standard library.

// cpuProfile is the part of a decoded profile the attribution needs.
type cpuProfile struct {
	valueIndex int             // index of the "cpu" value in each sample
	samples    []profileSample //
	locFuncs   map[uint64][]uint64
	funcNames  map[uint64]int64 // function id -> string table index
	strs       []string
}

type profileSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// protoReader walks protobuf wire-format fields.
type protoReader struct {
	b []byte
}

var errTruncated = errors.New("pprof: truncated protobuf")

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field returns the next field's number, wire type, varint value (wire
// type 0) and payload (wire type 2); fixed-width fields are skipped.
func (r *protoReader) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return num, wire, v, payload, err
}

// uints appends a repeated varint field's values, packed or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pr := protoReader{payload}
	for len(pr.b) > 0 {
		x, err := pr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseCPUProfile decodes a gzip'd profile.proto.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var sampleTypes []int64 // string index of each value's type
	r := protoReader{raw}
	for len(r.b) > 0 {
		num, wire, _, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		if wire != 2 {
			continue
		}
		switch num {
		case 1: // sample_type: ValueType{type, unit}
			vt := protoReader{payload}
			typ := int64(0)
			for len(vt.b) > 0 {
				f, _, v, _, err := vt.field()
				if err != nil {
					return nil, err
				}
				if f == 1 {
					typ = int64(v)
				}
			}
			sampleTypes = append(sampleTypes, typ)
		case 2: // sample
			var s profileSample
			sr := protoReader{payload}
			for len(sr.b) > 0 {
				f, w, v, pl, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = uints(s.locs, w, v, pl); err != nil {
						return nil, err
					}
				case 2:
					var vals []uint64
					if vals, err = uints(nil, w, v, pl); err != nil {
						return nil, err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location: id, lines{function_id, line}
			lr := protoReader{payload}
			var id uint64
			var funcs []uint64
			for len(lr.b) > 0 {
				f, _, v, pl, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					ln := protoReader{pl}
					for len(ln.b) > 0 {
						g, _, fv, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if g == 1 {
							funcs = append(funcs, fv)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // function: id, name
			fr := protoReader{payload}
			var id uint64
			var name int64
			for len(fr.b) > 0 {
				f, _, v, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(payload))
		}
	}
	p.valueIndex = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(p.strs) && p.strs[t] == "cpu" {
			p.valueIndex = i
		}
	}
	return p, nil
}

func (p *cpuProfile) funcName(id uint64) string {
	idx, ok := p.funcNames[id]
	if !ok || idx < 0 || int(idx) >= len(p.strs) {
		return ""
	}
	return p.strs[idx]
}

// internalPrefix marks the frames that belong to this repository's layers.
const internalPrefix = "mstc/internal/"

// samplePackage attributes one sample: the innermost mstc/internal/<pkg>
// frame on its stack names the package; a stack without one that runs in
// a background GC worker is "runtime.gc"; anything else is "other".
func (p *cpuProfile) samplePackage(s profileSample) string {
	gc := false
	for _, loc := range s.locs {
		// Lines within a location run innermost (inlined callee) first.
		for _, fid := range p.locFuncs[loc] {
			name := p.funcName(fid)
			if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
				if i := strings.IndexByte(rest, '.'); i > 0 {
					return rest[:i]
				}
				return rest
			}
			if name == "runtime.gcBgMarkWorker" || name == "runtime.bgsweep" || name == "runtime.bgscavenge" {
				gc = true
			}
		}
	}
	if gc {
		return "runtime.gc"
	}
	return "other"
}

// layerOf maps a package to the layer that owns it.
func layerOf(pkg string) string {
	switch pkg {
	case "spatial":
		return "radio"
	case "sim", "channel":
		return "manet"
	}
	return pkg
}

// layerShares returns each layer's share of the profile's CPU time.
func (p *cpuProfile) layerShares() map[string]float64 {
	byLayer := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if p.valueIndex < 0 || p.valueIndex >= len(s.values) {
			continue
		}
		v := float64(s.values[p.valueIndex])
		byLayer[layerOf(p.samplePackage(s))] += v
		total += v
	}
	out := make(map[string]float64, len(byLayer))
	for layer, v := range byLayer {
		out[layer] = ratio(v, total)
	}
	return out
}
