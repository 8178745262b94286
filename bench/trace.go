package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory: 32 MB,
// allocated up front so that recording a span allocates nothing. Past
// the bound the remaining operations run untraced; per-layer numbers
// come from the spans that were kept.
const maxSpans = 1 << 20

// span is one timed call into a layer, made from the benchmark's side of
// the boundary. Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent int32
	op         int32 // operation index, -1 for set-up and probes
	name       uint16
	start, end int64
}

// tracer records spans in memory and writes them once, at exit. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex // scenario spans arrive from the suite's pool workers
	names  []string
	byName map[string]uint16
	spans  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byName: make(map[string]uint16), spans: make([]span, 0, maxSpans)}
}

// begin opens a span under parent (-1 for a root) and returns its id, or
// -1 when the tracer is nil or full.
func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	idx, ok := t.byName[name]
	if !ok {
		idx = uint16(len(t.names))
		t.names = append(t.names, name)
		t.byName[name] = idx
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: idx, start: now, end: -1})
	return id
}

// end closes span id; -1 is ignored.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// canRecord reports whether another traced operation can still be kept
// whole: it leaves room for the spans of one operation.
func (t *tracer) canRecord() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) < maxSpans-maxSpans/8
}

// closedSpan is a finished span with its duration and self time — the
// duration minus the part of the interval its child spans cover, with
// concurrent children merged first — in nanoseconds.
type closedSpan struct {
	name      string
	op        int32
	dur, self float64
}

// closed returns every finished span, in start order.
func (t *tracer) closed() []closedSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]closedSpan, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := float64(s.end - s.start)
		out = append(out, closedSpan{
			name: t.names[s.name],
			op:   s.op,
			dur:  d,
			self: d - float64(covered(children[s.id], s.start, s.end)),
		})
	}
	return out
}

// selfTimes returns the self times of the spans called name.
func selfTimes(spans []closedSpan, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.self)
		}
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv[1:] {
		if x[0] > curHi {
			flush()
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	flush()
	return total
}

// write stores every span as JSON: {id, parent, op, name, start_ns,
// end_ns}.
func (t *tracer) write(path string) error {
	type out struct {
		ID      int32  `json:"id"`
		Parent  int32  `json:"parent"`
		Op      int32  `json:"op"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	t.mu.Lock()
	spans := make([]out, len(t.spans))
	for i, s := range t.spans {
		spans[i] = out{s.id, s.parent, s.op, t.names[s.name], s.start, s.end}
	}
	t.mu.Unlock()
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
