package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// The traced pass records spans from the benchmark's own files, around
// the calls into each layer: spans inside the program are a later
// change. What a span cannot reach from outside (where time goes inside
// core) the CPU profile of the same run supplies, folded by package.

// span is one timed interval at a layer boundary.
type span struct {
	name   string
	req    int64 // spans of one request share it; -1 inherits the parent's
	parent int32 // index of the span that caused this one; -1 for a root
	start  int64 // ns since the tracer was created
	end    int64
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. It belongs to one goroutine: begin pushes onto a stack of open
// spans and end pops, so the open span is the parent of the next one.
// A nil tracer records nothing, which is how the timed reps run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		if req < 0 {
			req = t.spans[parent].req
		}
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = int64(time.Since(t.t0))
}

// spanTotals is the aggregate of one span name.
type spanTotals struct {
	count int64
	total time.Duration // sum of durations
	self  time.Duration // total minus the part child spans cover
}

// addTotals adds the tracer's spans, aggregated by name, into agg. A
// span's self time is its duration minus its children's.
func (t *tracer) addTotals(agg map[string]spanTotals) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		a := agg[s.name]
		a.count++
		a.total += time.Duration(s.end - s.start)
		a.self += time.Duration(s.end - s.start - child[i])
		agg[s.name] = a
	}
}

// writeSpans writes the tracers' spans to path as JSON lines.
func writeSpans(path, workload string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ti, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			err := enc.Encode(struct {
				Workload string `json:"workload"`
				Tracer   int    `json:"tracer"`
				Span     int    `json:"span"`
				Parent   int32  `json:"parent"`
				Name     string `json:"name"`
				Req      int64  `json:"req"`
				StartNs  int64  `json:"start_ns"`
				EndNs    int64  `json:"end_ns"`
			}{workload, ti, i, s.parent, s.name, s.req, s.start, s.end})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedDev is the timing wrapper installed on sys.Dev for a traced rep:
// one child span of harness.run per device call, the call index being
// the request id.
type timedDev struct {
	inner blockdev.Device
	tr    *tracer
	calls int64
}

func (d *timedDev) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	d.tr.begin("core.read", d.calls)
	d.calls++
	lat, err := d.inner.ReadBlock(lba, buf)
	d.tr.end()
	return lat, err
}

func (d *timedDev) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	d.tr.begin("core.write", d.calls)
	d.calls++
	lat, err := d.inner.WriteBlock(lba, buf)
	d.tr.end()
	return lat, err
}

func (d *timedDev) Blocks() int64 { return d.inner.Blocks() }

// ---------------------------------------------------------------------
// CPU profile, folded by package
// ---------------------------------------------------------------------

// startProfile starts a CPU profile when on is set and returns the
// function that stops it and yields the gzipped profile (nil when off).
func startProfile(on bool) (stop func() []byte, err error) {
	if !on {
		return func() []byte { return nil }, nil
	}
	buf := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(buf); err != nil {
		return nil, fmt.Errorf("benchmark: cpu profile: %w", err)
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}, nil
}

// hostShareRow maps the leaf function of a profile sample to its row in
// hostSharePackages.
func hostShareRow(fn string) string {
	// "icash/internal/core.(*Controller).x" -> "icash/internal/core"
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main" || pkg == "icash/benchmark": // as a binary, as a test
		return "benchmark"
	case pkg == "icash/internal/sim/event":
		return "event"
	case strings.HasPrefix(pkg, "icash/internal/"):
		row, _, _ := strings.Cut(strings.TrimPrefix(pkg, "icash/internal/"), "/")
		for _, p := range hostSharePackages {
			if p == row {
				return row
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		return "runtime"
	default:
		return "other"
	}
}

// foldProfile adds the sample counts of one gzipped pprof CPU profile
// to rows, keyed by hostShareRow of each sample's leaf function.
func foldProfile(gz []byte, rows map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("benchmark: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("benchmark: profile: %w", err)
	}
	// profile.proto: Profile{sample=2, location=4, function=5,
	// string_table=6}; Sample{location_id=1, value=2};
	// Location{id=1, line=4}; Line{function_id=1}; Function{id=1, name=2}.
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int{}    // function id -> string index
		strs     []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			gotLeaf, gotCount := false, false
			err := protoFields(b, func(f int, v uint64, p []byte) error {
				if f != 1 && f != 2 {
					return nil // labels
				}
				nums, err := protoUints(v, p)
				if err != nil {
					return err
				}
				if len(nums) == 0 {
					return nil
				}
				if f == 1 && !gotLeaf {
					s.leaf, gotLeaf = nums[0], true
				}
				if f == 2 && !gotCount {
					s.count, gotCount = int64(nums[0]), true
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			var id, fn uint64
			seen := false
			err := protoFields(b, func(f int, v uint64, p []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !seen:
					// The first line is the innermost inlined frame.
					seen = true
					return protoFields(p, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id uint64
			var name int
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("benchmark: profile: %w", err)
	}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < len(strs) {
			name = strs[i]
		}
		rows[hostShareRow(name)] += s.count
	}
	return nil
}

var errProto = errors.New("malformed protobuf")

// protoFields walks the fields of one protobuf message. Varint fields
// arrive in v, length-delimited ones in b; fixed-width fields are
// skipped (profile.proto has none we read).
func protoFields(msg []byte, visit func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := visit(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			if err := visit(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// protoUints returns the values of a repeated integer field occurrence:
// the packed list in b, or the single varint v when b is nil.
func protoUints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
