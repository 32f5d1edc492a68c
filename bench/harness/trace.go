package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (in-program stage timers are a later change). Start and End are
// nanoseconds since the tracer was created; Parent is the index of the
// span that caused this one (-1 for a root); spans of one burst, batch or
// window share ID.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     uint64 `json:"id"`
}

// Tracer keeps spans in memory and writes them out once, at exit. A nil
// *Tracer records nothing, so untraced runs share the call sites.
type Tracer struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(run string) *Tracer {
	return &Tracer{run: run, epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// now is the tracer's clock: nanoseconds since its epoch.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its index.
func (t *Tracer) add(name string, start, end int64, parent int32, id uint64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// begin opens a span whose children will be recorded before it ends;
// finish closes it.
func (t *Tracer) begin(name string, start int64, parent int32, id uint64) int32 {
	return t.add(name, start, start, parent, id)
}

func (t *Tracer) finish(span int32, end int64) {
	if t == nil || span < 0 {
		return
	}
	t.mu.Lock()
	t.spans[span].End = end
	t.mu.Unlock()
}

// write stores the spans as dir/trace-<workload>.json.
func (t *Tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	doc := struct {
		Run   string `json:"run"`
		Spans []Span `json:"spans"`
	}{t.run, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
