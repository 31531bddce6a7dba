package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded by the traced run around a
// public function of that layer. Spans of one request share the
// request's root span as Parent; N carries the call's count payload
// (results, bytes) where it has one.
type span struct {
	ID, Parent uint64
	Name       string
	Start, Dur int64 // ns since the recorder's epoch
	N          int64
}

// recorder keeps the traced run's spans in memory; they are written out
// once, when the run ends.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) offset(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addAll appends a client's locally buffered spans.
func (r *recorder) addAll(ss []span) {
	r.mu.Lock()
	r.spans = append(r.spans, ss...)
	r.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur))
		}
	}
	return out
}

// sumN totals the count payload of every span with the given name.
func (r *recorder) sumN(name string) (total int64, spans int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name {
			total += s.N
			spans++
		}
	}
	return total, spans
}

// write stores the spans as tab-separated lines, headed by the run's
// identity and operation digest.
func (r *recorder) write(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# id\tparent\tname\tstart_ns\tdur_ns\tn\n", header)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start, s.Dur, s.N)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the linearly interpolated q-quantile of xs (which it
// sorts); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of the positive values; 0 when there
// are none.
func geomean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// kindQuantile is the geometric mean, over the kinds that have samples,
// of each kind's q-quantile. A workload whose operations come in kinds
// of very different cost (queries, document shapes) is summarized this
// way because a quantile of the pooled sample would sit on the border
// between two kinds, where it jumps from one kind's cost to the next.
func kindQuantile(byKind [][]float64, q float64) float64 {
	qs := make([]float64, 0, len(byKind))
	for _, xs := range byKind {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return geomean(qs)
}

// sample is one timed operation of a pass.
type sample struct {
	Kind int     `json:"k"` // query, document shape, or write kind
	Dur  float64 `json:"d"` // ns
}

type samples []sample

// byKind groups the durations by kind, for kinds 0..n-1 that keep
// accepts (nil keeps all).
func (ss samples) byKind(n int, keep func(kind int) bool) [][]float64 {
	out := make([][]float64, n)
	for _, s := range ss {
		if keep == nil || keep(s.Kind) {
			out[s.Kind] = append(out[s.Kind], s.Dur)
		}
	}
	return out
}

func (ss samples) durs() []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.Dur
	}
	return out
}
