package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans at each layer boundary, all from this
// benchmark's own code: the client around its exchange, a wrapper
// around the roomapi handler, and the in-process replay (replay.go)
// around calls into the engine and core. Spans stay in memory and are
// written out once the run ends.

// spanParent names each span's parent span within the same request (or
// drift batch); an empty parent makes a root. The replayed layers are
// children of the served span whose work they re-run.
var spanParent = map[string]string{
	"client.request":       "",
	"client.roundtrip":     "client.request",
	"client.decode":        "client.request",
	"roomapi.handler":      "client.roundtrip",
	"engine.plan":          "roomapi.handler",
	"core.plan":            "engine.plan",
	"core.plan_avoiding":   "engine.plan",
	"core.select":          "engine.plan",
	"core.solve_bounded":   "engine.plan",
	"engine.install":       "",
	"core.patch":           "engine.install",
	"engine.prepare_patch": "engine.install",
	"engine.commit":        "engine.install",
}

// Span is one recorded interval. Req is the request's stream ID, or the
// drift batch index for install spans.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory; safe for concurrent use.
type Recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewRecorder starts a recorder; span times are relative to now.
func NewRecorder() *Recorder {
	return &Recorder{origin: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// Add records a span.
func (r *Recorder) Add(name string, req int, start, end time.Time) {
	if _, ok := spanParent[name]; !ok {
		panic("servebench: span " + name + " has no parent entry")
	}
	s := Span{Name: name, Req: req, Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Finish assigns span IDs and parents and returns the spans grouped by
// name, each group in request order.
func (r *Recorder) Finish() map[string][]Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	type key struct {
		name string
		req  int
	}
	ids := make(map[key]int, len(r.spans))
	for i := range r.spans {
		r.spans[i].ID = i + 1
		ids[key{r.spans[i].Name, r.spans[i].Req}] = i + 1
	}
	byName := make(map[string][]Span)
	for i := range r.spans {
		s := &r.spans[i]
		if p := spanParent[s.Name]; p != "" {
			s.Parent = ids[key{p, s.Req}]
		}
		byName[s.Name] = append(byName[s.Name], *s)
	}
	for _, group := range byName {
		sort.Slice(group, func(i, j int) bool { return group[i].Req < group[j].Req })
	}
	return byName
}

// WriteFile writes every span as one JSON object per line.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// children returns, per request, the summed duration of the named child
// spans — what a parent span's self time subtracts.
func children(byName map[string][]Span, names ...string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, name := range names {
		for _, s := range byName[name] {
			out[s.Req] += s.Dur()
		}
	}
	return out
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// HandlerTrace wraps the roomapi handler with a span per traced request
// and records each response's body size.
type HandlerTrace struct {
	// rec is armed (non-nil) only while the traced phase runs.
	rec atomic.Pointer[Recorder]
	mu  sync.Mutex
	// bytes holds each traced request's response body size.
	bytes []int
}

// Wrap returns h instrumented. Requests without the request header
// (readiness probes) pass through unrecorded.
func (ht *HandlerTrace) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := ht.rec.Load()
		raw := r.Header.Get(requestHeader)
		if raw == "" || rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		id, err := strconv.Atoi(raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad %s header", requestHeader), http.StatusBadRequest)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		rec.Add("roomapi.handler", id, start, time.Now())
		ht.mu.Lock()
		ht.bytes = append(ht.bytes, cw.n)
		ht.mu.Unlock()
	})
}
