package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share its Op id; layer drives are root spans with Op −1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // −1 for a root span
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder was created
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps the traced pass's spans and counts in memory; they are
// written out once, when the run ends. It is used from one goroutine.
type recorder struct {
	t0     time.Time
	Spans  []span             `json:"spans"`
	Counts map[string]float64 `json:"counts"`
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), Counts: map[string]float64{}}
}

// start opens a span and returns its id for end and for child spans.
func (r *recorder) start(name string, parent, op int) int {
	id := len(r.Spans)
	r.Spans = append(r.Spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNs: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) end(id int) {
	r.Spans[id].EndNs = time.Since(r.t0).Nanoseconds()
}

// in times fn as a child span of parent.
func (r *recorder) in(name string, parent, op int, fn func() error) error {
	id := r.start(name, parent, op)
	err := fn()
	r.end(id)
	return err
}

// drive times fn as a root span, records how many units of work it did,
// and returns the layer's cost in nanoseconds per unit.
func (r *recorder) drive(name string, units float64, fn func()) float64 {
	id := r.start(name, -1, -1)
	fn()
	r.end(id)
	r.Counts[name] += units
	return r.Spans[id].dur() / units
}

func (s span) dur() float64 { return float64(s.EndNs - s.StartNs) }

// opStages returns, for every "op" span, the seconds spent in each named
// child span plus "session_self": the op's duration minus the part its
// children cover.
func (r *recorder) opStages() []map[string]float64 {
	byOp := map[int]map[string]float64{}
	var ops []int
	for _, s := range r.Spans {
		if s.Name == "op" {
			byOp[s.ID] = map[string]float64{"session_self": s.dur() / 1e9}
			ops = append(ops, s.ID)
		} else if stages, ok := byOp[s.Parent]; ok {
			stages[s.Name] += s.dur() / 1e9
			stages["session_self"] -= s.dur() / 1e9
		}
	}
	out := make([]map[string]float64, len(ops))
	for i, id := range ops {
		out[i] = byOp[id]
	}
	return out
}

// write dumps spans and counts as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
