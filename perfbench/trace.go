package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent indexes the enclosing span (-1 for a root); Txn is the
// transaction the call belongs to (0 for set-up work).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Txn    int    `json:"txn"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced code paths pay one nil check per call site.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, txn int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Txn: txn})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	if r == nil || i < 0 {
		return 0
	}
	s := &r.spans[i]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// add records an already measured interval as a closed span.
func (r *recorder) add(name string, parent, txn int, d time.Duration) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.t0))
	r.spans = append(r.spans, span{Name: name, Start: end - int64(d), End: end, Parent: parent, Txn: txn})
}

// perTxn sums the durations of the spans named name within each
// transaction whose id is in [lo, hi] and has at least one.
func (r *recorder) perTxn(name string, lo, hi int) []float64 {
	sums := map[int]int64{}
	for _, s := range r.spans {
		if s.Name == name && s.Txn >= lo && s.Txn <= hi {
			sums[s.Txn] += s.End - s.Start
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, float64(v))
	}
	return out
}

// durations returns the duration of every span named name, in order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as one JSON document at path.
func (r *recorder) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN-free callers pass at least one value.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
