package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the program. Spans of one request share
// Req; Parent is 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id and start (ns since base).
func (t *tracer) begin() (uint64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.ids.Add(1), int64(time.Since(t.base))
}

// end closes a span opened by begin.
func (t *tracer) end(id, parent uint64, req int64, name string, start int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: int64(time.Since(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// around records fn as a span named name.
func (t *tracer) around(parent uint64, req int64, name string, fn func(id uint64) error) error {
	if t == nil {
		return fn(0)
	}
	id, start := t.begin()
	err := fn(id)
	t.end(id, parent, req, name, start)
	return err
}

// selfTimes returns, per span name, the mean self time in µs: a span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	sum := make(map[string]float64)
	n := make(map[string]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		sum[s.Name] += float64(self) / 1e3
		n[s.Name]++
	}
	out := make(map[string]float64, len(sum))
	for name, v := range sum {
		out[name] = v / n[name]
	}
	return out
}

// covered returns how much of [lo, hi) the union of intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
