package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: the benchmark records it around
// each public function it calls. Parent 0 marks a root span.
type span struct {
	Name       string
	ID, Parent int64
	Lane       int
	Start, End time.Duration // offsets from the recorder's birth
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths pay only a nil check.
type recorder struct {
	t0    time.Time
	seq   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (r *recorder) begin(name string, parent int64, lane int) (int64, func()) {
	if r == nil {
		return 0, func() {}
	}
	id := r.seq.Add(1)
	start := time.Since(r.t0)
	return id, func() {
		end := time.Since(r.t0)
		r.mu.Lock()
		r.spans = append(r.spans, span{name, id, parent, lane, start, end})
		r.mu.Unlock()
	}
}

// time runs fn inside a span and returns fn's wall time, which is
// measured whether or not the recorder is on.
func (r *recorder) time(name string, parent int64, lane int, fn func(id int64)) time.Duration {
	id, end := r.begin(name, parent, lane)
	t := time.Now()
	fn(id)
	d := time.Since(t)
	end()
	return d
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime returns each layer's self time: every span's duration minus
// the part of its interval that its direct children cover.
func selfTime(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's (children of a pooled span may overlap).
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// selfTimes renders selfTime of everything recorded, largest first.
func (r *recorder) selfTimes() string {
	st := selfTime(r.snapshot())
	layers := make([]string, 0, len(st))
	for l := range st {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return st[layers[i]] > st[layers[j]] })
	parts := make([]string, len(layers))
	for i, l := range layers {
		parts[i] = fmt.Sprintf("%s=%.4f", l, st[l].Seconds())
	}
	return strings.Join(parts, " ")
}

// chromeEvent is one Chrome trace-event record, the JSON format Perfetto
// and chrome://tracing load.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as a complete ("X") event, one track per
// lane, with the span and parent ids as arguments.
func (r *recorder) writeChrome(path string) error {
	spans := r.snapshot()
	lanes := map[int]bool{}
	events := make([]chromeEvent, 0, len(spans)+8)
	for _, s := range spans {
		lanes[s.Lane] = true
		events = append(events, chromeEvent{
			Name: s.Name, Phase: "X", PID: 1, TID: s.Lane,
			TsUs: float64(s.Start) / 1e3, DurUs: float64(s.dur()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	for l := range lanes {
		events = append(events, chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: l,
			Args: map[string]any{"name": fmt.Sprintf("lane %d", l)}})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// spanStats sums the spans named name.
func spanStats(spans []span, name string) (n int, total time.Duration) {
	for _, s := range spans {
		if s.Name == name {
			n++
			total += s.dur()
		}
	}
	return n, total
}
