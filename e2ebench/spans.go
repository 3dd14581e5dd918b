package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call of the traced replay. Start is the offset from
// the recorder's origin; a child whose duration is known but whose
// position is not (read from a histogram's sum delta) has Start −1.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the parent span, −1 at the root
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// recorder holds the spans of one traced replay in memory; they are
// written out once, when the benchmark ends. A nil *recorder records
// nothing, which is how the untraced replay runs the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span as a child of the innermost open span and returns
// its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: r.top(), Start: r.now()})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned (spans nest strictly).
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].Dur = r.now() - r.spans[id].Start
	if n := len(r.open); n > 0 && r.open[n-1] == id {
		r.open = r.open[:n-1]
	}
}

// done records a child of the innermost open span that has just ended
// after running for d — what an observer callback reports.
func (r *recorder) done(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.now()
	r.spans = append(r.spans, span{Name: name, Parent: r.top(), Start: end - int64(d), Dur: int64(d)})
}

// within records a child of parent whose duration is known but whose
// position inside it is not.
func (r *recorder) within(parent int, name string, d time.Duration) {
	if r == nil || parent < 0 || d <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: -1, Dur: int64(d)})
}

func (r *recorder) top() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Positioned children
// are merged as intervals (clipped to the parent, overlaps counted once);
// unpositioned children are assumed disjoint from the rest and
// subtracted whole. Self time never goes below zero.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		var loose int64
		for _, k := range kids[i] {
			c := spans[k]
			if c.Start < 0 || s.Start < 0 {
				loose += c.Dur
				continue
			}
			a, b := max(c.Start, s.Start), min(c.Start+c.Dur, s.Start+s.Dur)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for j, v := range ivs {
			switch {
			case j == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		self[i] = max(s.Dur-covered-loose, 0)
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	N     int
	Total int64 // ns
	Self  int64 // ns
}

// meanMs is the mean duration in milliseconds (0 for no spans).
func (s spanStat) meanMs() float64 { return ratio(float64(s.Total), float64(s.N)) / 1e6 }

// meanSelfMs is the mean self time in milliseconds.
func (s spanStat) meanSelfMs() float64 { return ratio(float64(s.Self), float64(s.N)) / 1e6 }

// aggregate groups the recorded spans by name with their self times.
func (r *recorder) aggregate() map[string]spanStat {
	out := map[string]spanStat{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		st := out[s.Name]
		st.N++
		st.Total += s.Dur
		st.Self += self[i]
		out[s.Name] = st
	}
	return out
}

// write saves every span, with its self time, as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type out struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(r.spans)
	all := make([]out, len(r.spans))
	for i, s := range r.spans {
		all[i] = out{s, self[i]}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
