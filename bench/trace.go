package main

// Outside-in tracing. Spans are recorded only here, around the calls the
// benchmark makes into each layer and inside the public callbacks it
// wraps; the program under test is not instrumented. Everything stays in
// memory until the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed interval. Name is "<layer>.<what>"; Parent indexes
// the enclosing span (-1 for a root); Op numbers the traced op the span
// belongs to. Start and End are nanoseconds since the recorder was made.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder collects spans from one goroutine: the simulations run their
// callbacks on the goroutine that drives the scheduler, so the open
// spans form a stack and the innermost one is the parent of the next.
// A nil recorder records nothing, which is how the untraced twin of a
// traced pass runs the same code.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Op: r.op})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// in runs fn inside a span.
func (r *recorder) in(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one parent never overlap (they come off a stack),
// so the covered part is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// byName sums self time and counts spans per span name.
func byName(spans []span) (self map[string]time.Duration, count map[string]int) {
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for i, d := range selfTimes(spans) {
		self[spans[i].Name] += d
		count[spans[i].Name]++
	}
	return self, count
}

// byLayer sums self time per layer.
func byLayer(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += d
	}
	return out
}

// traceFile is what a traced run writes.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Host     host   `json:"host"`
	// TracedWallMs is the wall-clock of the traced ops measured around
	// them; LayerSelfMs the per-layer self times, which sum to the root
	// spans' durations.
	TracedWallMs float64            `json:"traced_wall_ms"`
	LayerSelfMs  map[string]float64 `json:"layer_self_ms"`
	// SimTimeline is the simulated-time chain of the traced reaction:
	// first hot sample, first alarm, first commit, last FIB delta after
	// it, and the instant viewers stopped stalling (ms; -1: not seen).
	SimTimeline map[string]float64 `json:"sim_timeline_ms,omitempty"`
	// Spans holds at most maxSpansPerName spans of each name (parents
	// re-indexed, -1 where the parent was dropped); Dropped counts the
	// rest, which LayerSelfMs still includes.
	Spans   []span         `json:"spans"`
	Dropped map[string]int `json:"dropped,omitempty"`
}

// maxSpansPerName bounds the written file: a 20000-viewer surge records
// a span per join, and a reader needs a sample of those, not all.
const maxSpansPerName = 500

// capSpans keeps the first maxSpansPerName spans of every name.
func capSpans(spans []span) (kept []span, dropped map[string]int) {
	seen := make(map[string]int)
	index := make([]int, len(spans))
	for i, s := range spans {
		seen[s.Name]++
		if seen[s.Name] > maxSpansPerName {
			index[i] = -1
			if dropped == nil {
				dropped = make(map[string]int)
			}
			dropped[s.Name]++
			continue
		}
		index[i] = len(kept)
		if s.Parent >= 0 {
			s.Parent = index[s.Parent]
		}
		kept = append(kept, s)
	}
	return kept, dropped
}

func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	out := *tf
	out.Spans, out.Dropped = capSpans(tf.Spans)
	if err := json.NewEncoder(f).Encode(&out); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
