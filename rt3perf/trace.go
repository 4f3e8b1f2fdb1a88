package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one traced interval. Spans of one request share Req; Parent
// is the ID of the span that caused it (-1 for a root). Source says who
// measured it: "bench" for the benchmark's own clock around its calls,
// "program" for intervals taken from the program's response fields.
type span struct {
	Name       string
	Start, End time.Time
	ID, Parent int
	Req        int // request index; -1 for a switch call
	Source     string
}

// spanLog keeps the traced run's spans in memory until the run ends.
// A nil *spanLog records nothing, which is the untraced run.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) int {
	s.ID = len(l.spans)
	l.spans = append(l.spans, s)
	return s.ID
}

// request records a request's root span, from its due time to its
// response, with the submit call and the program-reported queue,
// prefill/exec and decode intervals as children.
func (l *spanLog) request(r *record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	name := "generate"
	if r.kind == kindCls {
		name = "classify"
	}
	root := l.add(span{Name: name, Start: r.due, End: r.done, Parent: -1, Req: r.idx, Source: "bench"})
	l.add(span{Name: "submit", Start: r.sent, End: r.submitted, Parent: root, Req: r.idx, Source: "bench"})
	if r.err() != nil {
		return
	}
	t := r.sent
	child := func(name string, msDur float64) {
		end := t.Add(time.Duration(msDur * 1e6))
		l.add(span{Name: name, Start: t, End: end, Parent: root, Req: r.idx, Source: "program"})
		t = end
	}
	if r.kind == kindCls {
		child("queue", r.cls.QueueMS)
		child("exec", r.cls.ExecMS)
		return
	}
	child("queue", r.gen.QueueMS)
	child("prefill", r.gen.PrefillMS)
	child("decode", r.gen.DecodeMS)
}

// switchCall records one level-switch call as its own root span.
func (l *spanLog) switchCall(s switchRec) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.add(span{Name: fmt.Sprintf("switch to %s", levelNames[s.level]), Start: s.start, End: s.end, Parent: -1, Req: -1, Source: "bench"})
}

// len returns the number of recorded spans.
func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write dumps the spans as Chrome trace_event JSON, timestamps in
// microseconds from origin; each request is its own track.
func (l *spanLog) write(path string, origin time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		f.Close()
		return err
	}
	for i, s := range l.spans {
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				f.Close()
				return err
			}
		}
		ev := event{
			Name: s.Name, Cat: s.Source, Ph: "X",
			TS:  float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Req + 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "request": s.Req},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
