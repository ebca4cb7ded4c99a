package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (the program itself is not instrumented for this).
// Parent indexes a span of the same lane, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tag    string `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory, one lane per goroutine so recording
// never takes a lock, and writes them out once the run is over. A nil
// tracer (untraced run) hands out nil lanes, whose methods do nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	tr    *tracer
	id    int
	name  string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane registers a recording lane; call before the goroutine that owns
// it starts.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{tr: t, id: len(t.lanes), name: name}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span and returns its id (-1 on a nil lane).
func (l *lane) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Lane: l.id, ID: id, Parent: parent,
		Start: int64(time.Since(l.tr.t0))})
	return id
}

func (l *lane) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = int64(time.Since(l.tr.t0))
}

// tag labels a span with an outcome (e.g. "cold").
func (l *lane) tag(id int, t string) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].Tag = t
}

// timed runs fn inside a span.
func (l *lane) timed(name string, parent int, fn func()) {
	id := l.begin(name, parent)
	fn()
	l.end(id)
}

// all returns every finished span; read only after the lanes' owners
// have stopped.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.End != 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// durations gathers the wall time of every span with the given name
// (and tag, unless tag is ""), in the unit scale (time.Millisecond,
// time.Microsecond).
func (t *tracer) durations(name, tag string, unit time.Duration) *sample {
	s := &sample{}
	for _, sp := range t.all() {
		if sp.Name == name && (tag == "" || sp.Tag == tag) {
			s.add(float64(sp.dur()) / float64(unit))
		}
	}
	return s
}

// selfTimes gathers, for every span with the given name, its duration
// minus the part its direct children cover: the time the layer spent
// outside the layers it called.
func (t *tracer) selfTimes(name string, unit time.Duration) *sample {
	s := &sample{}
	if t == nil {
		return s
	}
	for _, l := range t.lanes {
		child := make(map[int]time.Duration)
		for _, sp := range l.spans {
			if sp.Parent >= 0 && sp.End != 0 {
				child[sp.Parent] += sp.dur()
			}
		}
		for _, sp := range l.spans {
			if sp.Name == name && sp.End != 0 {
				s.add(float64(sp.dur()-child[sp.ID]) / float64(unit))
			}
		}
	}
	return s
}

// write stores the spans as JSON under dir, named after the run.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type laneInfo struct {
		ID   int    `json:"id"`
		Name string `json:"name"`
	}
	doc := struct {
		Lanes []laneInfo `json:"lanes"`
		Spans []span     `json:"spans"`
	}{Spans: t.all()}
	for _, l := range t.lanes {
		doc.Lanes = append(doc.Lanes, laneInfo{l.id, l.name})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644)
}
