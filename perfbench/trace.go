package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one request or op share op; parent is the id of the span that
// caused this one (0 for a root).
type span struct {
	id, parent, op int64
	name           string
	start, end     time.Time
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(capHint int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capHint)}
}

// newID reserves a span id, so children can name their parent before the
// parent span ends.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span; id 0 reserves a fresh one, and op 0 makes
// the span the root of its own op.
func (t *tracer) add(id, parent, op int64, name string, start, end time.Time) {
	t.mu.Lock()
	if id == 0 {
		t.next++
		id = t.next
	}
	if op == 0 {
		op = id
	}
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, start: start, end: end})
	t.mu.Unlock()
}

// write dumps the spans as JSON lines, times in nanoseconds since the
// tracer was created.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	t.mu.Lock()
	for _, s := range t.spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, s.id, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, s.parent, 10)
		line = append(line, `,"op":`...)
		line = strconv.AppendInt(line, s.op, 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, s.name)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, int64(s.start.Sub(t.t0)), 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, int64(s.end.Sub(t.t0)), 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
