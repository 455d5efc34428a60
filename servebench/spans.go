package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. The program itself is not instrumented.
type span struct {
	Name string `json:"name"`
	// Req is the request the span served: the tag EPC, or the lap
	// index for a lap's root span.
	Req string `json:"req"`
	// Parent indexes the enclosing span; -1 for a root.
	Parent int `json:"parent"`
	// Start and End are nanoseconds since the tracer's origin.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so one pipeline function serves the traced and the
// untraced replay.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.origin))
	}
}

// endAs closes a span whose name is known only once the call returned.
func (t *tracer) endAs(id int, name string) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.origin))
		t.spans[id].Name = name
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	hi := parent.Start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// selfByName sums self time and counts spans per name.
func selfByName(spans []span) (self map[string]int64, count map[string]int) {
	st := selfTimes(spans)
	self, count = map[string]int64{}, map[string]int{}
	for i, s := range spans {
		self[s.Name] += st[i]
		count[s.Name]++
	}
	return self, count
}

// writeSpans writes the spans as NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
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
