package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed public call. Spans of one job share its id; parent 0
// marks a root.
type span struct {
	id, parent int64
	job        int
	name       string
	layer      string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; they are written out once, at the end.
// A nil *tracer records nothing and only runs the wrapped calls.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span runs fn inside a span, records it and returns its duration. fn
// receives the span id so the calls it makes can name it as their parent.
func (t *tracer) span(name, layer string, parent int64, job int, fn func(id int64)) time.Duration {
	if t == nil {
		fn(0)
		return 0
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	start := time.Since(t.epoch)
	fn(id)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, job: job,
		name: name, layer: layer, start: start, end: end})
	t.mu.Unlock()
	return end - start
}

// selfTimes returns each layer's self time over the spans whose root
// span started within [from, to): a span's duration minus the part of it
// its child spans cover. Children of one span run sequentially, so their
// durations do not overlap.
func selfTimes(spans []span, from, to time.Duration) map[string]time.Duration {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].id] = &spans[i]
	}
	rootOf := func(s *span) *span {
		for s.parent != 0 {
			p, ok := byID[s.parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	self := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if r := rootOf(s); r.start < from || r.start >= to {
			continue
		}
		self[s.layer] += s.end - s.start
		if p, ok := byID[s.parent]; ok {
			self[p.layer] -= s.end - s.start
		}
	}
	return self
}

// writeChrome writes the spans as a Chrome/Perfetto trace-event JSON
// file. Root spans are packed onto lanes (tids) so that concurrent jobs
// sit on separate tracks; children inherit their root's lane.
func writeChrome(path string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].start != sorted[j].start {
			return sorted[i].start < sorted[j].start
		}
		return sorted[i].id < sorted[j].id
	})
	lane := map[int64]int{}
	var laneFree []time.Duration
	for _, s := range sorted {
		if s.parent != 0 {
			lane[s.id] = lane[s.parent]
			continue
		}
		l := 0
		for l < len(laneFree) && laneFree[l] > s.start {
			l++
		}
		if l == len(laneFree) {
			laneFree = append(laneFree, 0)
		}
		laneFree[l] = s.end
		lane[s.id] = l
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(sorted))
	for _, s := range sorted {
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: lane[s.id],
			Args: map[string]any{"id": s.id, "parent": s.parent, "job": s.job, "layer": s.layer},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
