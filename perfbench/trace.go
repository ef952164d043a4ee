package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Step   int    `json:"step"`   // script step, -1 during set-up
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory. While off, begin and end record
// nothing, so the same code path runs traced and untraced.
type recorder struct {
	on     bool
	origin time.Time
	step   int
	spans  []span
	open   []int // stack of open span indexes
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), step: -1} }

func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.origin)), Parent: parent, Step: r.step})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
}

// timed runs fn inside a span named name.
func (r *recorder) timed(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are clipped to the
// parent and merged first, so a child that covers its parent leaves
// zero and overlapping children are not counted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for k, v := range ivs {
			if k == 0 || v.lo > curHi {
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		covered += curHi - curLo
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName collects the self times of every span named name.
func selfByName(spans []span, self []time.Duration, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[i]))
		}
	}
	return out
}

// writeSpans saves the spans as JSON.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
