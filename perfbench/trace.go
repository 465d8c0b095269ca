package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded only in the benchmark's own code, around each call into a
// package; the program under test carries no instrumentation. A span's
// layer is its name up to the first dot ("merge.add" -> "merge"); spans
// named "bench.*" are the benchmark's own units of work (a pass, a
// session, a fleet operation) and are the roots the unaccounted share is
// measured against.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Req    int64  `json:"req"`    // request id shared by a unit's spans
}

// tracer keeps spans in memory until the benchmark exits. A nil *tracer
// records nothing, so untraced units pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sp is a handle on an open span; the zero value (from a nil tracer) is
// inert.
type sp struct {
	t   *tracer
	id  int
	req int64
}

// root opens a root span for request req.
func (t *tracer) root(name string, req int64) sp { return t.rootAt(name, req, time.Now()) }

// rootAt opens a root span that started at a given time — an open-loop
// operation starts when it was due, not when it was sent.
func (t *tracer) rootAt(name string, req int64, at time.Time) sp {
	if t == nil {
		return sp{}
	}
	return t.open(name, -1, req, at)
}

func (t *tracer) open(name string, parent int, req int64, at time.Time) sp {
	now := at.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return sp{t: t, id: id, req: req}
}

// child opens a span caused by s, in the same request.
func (s sp) child(name string) sp { return s.childAt(name, time.Now()) }

func (s sp) childAt(name string, at time.Time) sp {
	if s.t == nil {
		return sp{}
	}
	return s.t.open(name, s.id, s.req, at)
}

// end closes the span.
func (s sp) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.mu.Unlock()
}

// do runs f inside a child span named name.
func (s sp) do(name string, f func() error) error {
	c := s.child(name)
	err := f()
	c.end()
	return err
}

// all returns a copy of the spans; Parent indexes this slice. Every span
// is closed by the time the benchmark reads them.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// durations lists the durations in milliseconds of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// accounting is the self-time breakdown of the units of work in a trace:
// spans under "bench.*" roots. Set-up runs under its own root and is not
// part of it.
type accounting struct {
	// SelfMs is each layer's self time: its spans' durations minus the
	// part of each interval its child spans cover.
	SelfMs map[string]float64
	// Unaccounted is 1 − (time covered by layer spans / root wall time)
	// over all units: the share of their wall time that no measured layer
	// explains. Parallel layer spans inside a unit count once, so the share
	// stays in [0, 1].
	Unaccounted float64
}

func account(spans []span) accounting {
	kids := make(map[int][]int, len(spans))
	inUnit := make([]bool, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
			inUnit[i] = inUnit[s.Parent] // parents precede their children
		} else {
			inUnit[i] = layerOf(s.Name) == "bench"
		}
	}
	acc := accounting{SelfMs: map[string]float64{}}
	var wall, layered int64
	for i, s := range spans {
		if !inUnit[i] {
			continue
		}
		var iv [][2]int64
		for _, k := range kids[i] {
			iv = append(iv, [2]int64{spans[k].Start, spans[k].End})
		}
		self := (s.End - s.Start) - covered(iv, s.Start, s.End)
		if l := layerOf(s.Name); l != "bench" {
			acc.SelfMs[l] += float64(self) / 1e6
		}
		if s.Parent < 0 && layerOf(s.Name) == "bench" {
			wall += s.End - s.Start
			// Every non-bench descendant of the root, at any depth.
			var desc [][2]int64
			var walk func(int)
			walk = func(p int) {
				for _, k := range kids[p] {
					if layerOf(spans[k].Name) != "bench" {
						desc = append(desc, [2]int64{spans[k].Start, spans[k].End})
					}
					walk(k)
				}
			}
			walk(i)
			layered += covered(desc, s.Start, s.End)
		}
	}
	if wall > 0 {
		acc.Unaccounted = 1 - float64(layered)/float64(wall)
	}
	return acc
}

// writeSpans writes one JSON object per line: a header with the machine
// description, then every span.
func writeSpans(path string, header any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
