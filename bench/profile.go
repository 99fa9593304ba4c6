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

// layers are the repository's simulator packages, bottom of the stack first.
var layers = []string{"sim", "gpu", "pcie", "cuda", "core", "runners", "workloads",
	"serve", "cluster", "autoscale", "tenancy"}

// cpuBuckets are the CPU-profile buckets in report order: the layers, then
// the Go runtime's goroutine scheduling, garbage collection and allocation,
// then everything else.
var cpuBuckets = append(append([]string(nil), layers...),
	"goruntime.sched", "goruntime.gc", "goruntime.malloc", "goruntime.other")

// cpuShares decodes a runtime/pprof CPU profile and returns each bucket's
// share of the samples, and the sample count. A sample goes to the first
// frame, walking from the leaf toward the root, that is either a layer's
// function or one of the runtime's scheduling, GC or allocation functions;
// a sample with neither goes to goruntime.other. So time in memmove or a
// map lookup counts for the layer that called it, while time the runtime
// spends switching goroutines, collecting or allocating counts for the
// runtime.
func cpuShares(data []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if name, ok := p.funcName[fn]; ok {
					frames = append(frames, p.strings[name])
				}
			}
		}
		counts[bucket(frames)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = ratio(float64(counts[b]), float64(total))
	}
	return shares, total, nil
}

func bucket(frames []string) string {
	for _, fn := range frames {
		if l, ok := layerOf(fn); ok {
			return l
		}
		name, ok := strings.CutPrefix(fn, "runtime.")
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(name, "malloc") || allocFuncs[name]:
			return "goruntime.malloc"
		case isGC(name):
			return "goruntime.gc"
		case schedFuncs[name] || strings.HasPrefix(name, "chan") || strings.HasPrefix(name, "runq") ||
			strings.HasPrefix(name, "futex"):
			return "goruntime.sched"
		}
	}
	return "goruntime.other"
}

// layerOf maps "repro/internal/<layer>.<func>" to its layer.
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range layers {
		if pkg == l {
			return l, true
		}
	}
	return "", false
}

var allocFuncs = map[string]bool{"newobject": true, "makeslice": true, "growslice": true,
	"makemap": true, "makemap_small": true, "newarray": true, "(*mcache).refill": true,
	"(*mcache).nextFree": true, "(*mcentral).cacheSpan": true, "(*mheap).alloc": true}

func isGC(name string) bool {
	if name == "_GC" {
		return true
	}
	for _, s := range []string{"gc", "mark", "sweep", "scan", "scav", "wbBuf", "Barrier", "greyobject", "findObject"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

var schedFuncs = map[string]bool{"selectgo": true, "send": true, "recv": true, "gopark": true,
	"goparkunlock": true, "park_m": true, "goready": true, "ready": true, "schedule": true,
	"findRunnable": true, "execute": true, "gogo": true, "mcall": true, "gosched_m": true,
	"goschedImpl": true, "Gosched": true, "casgstatus": true, "stealWork": true, "wakep": true,
	"startm": true, "stopm": true, "mPark": true, "notesleep": true, "notewakeup": true,
	"lock2": true, "unlock2": true, "newproc": true, "newproc1": true, "goexit0": true,
	"goexit1": true, "acquireSudog": true, "releaseSudog": true, "resetspinning": true,
	"handoffp": true, "acquirep": true, "releasep": true, "usleep": true, "osyield": true,
	"checkTimers": true, "netpoll": true}

// profile is the part of a pprof Profile message the shares need.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the protobuf encoding of perftools.profiles.Profile:
// sample = 2, location = 4, function = 5, string_table = 6.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, sub []byte, wire int) error {
		switch num {
		case 2:
			var s sample
			var values []uint64 // [samples, cpu ns]
			err := fields(sub, func(num int, v uint64, sub []byte, wire int) error {
				vals, err := varints(v, sub, wire)
				switch num {
				case 1:
					s.locs = append(s.locs, vals...)
				case 2:
					values = append(values, vals...)
				}
				return err
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := fields(sub, func(num int, v uint64, sub []byte, wire int) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(sub, func(num int, v uint64, _ []byte, _ int) error {
						if num == 1 {
							funcs = append(funcs, v)
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
			err := fields(sub, func(num int, v uint64, _ []byte, _ int) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.funcName {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields calls fn for each field of one protobuf message: v holds a varint
// or fixed value, sub a length-delimited one.
func fields(b []byte, fn func(num int, v uint64, sub []byte, wire int) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, sub, wire); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(v uint64, sub []byte, wire int) ([]uint64, error) {
	if wire != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		sub = sub[n:]
	}
	return out, nil
}
