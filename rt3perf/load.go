package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rt3/internal/serve"
)

// record is one sent request and what came back. Only records in the
// verification sample keep their payloads (prompt, generated tokens,
// classification logits); the rest drop them once the response has
// arrived, so that the benchmark's own live heap stays small beside the
// program's and does not grow with the program's throughput.
type record struct {
	request
	idx       int
	promptLen int
	nTokens   int  // generated tokens
	sampled   bool // payloads kept for the output check
	mismatch  bool // the output check found the response wrong

	// due is when the request was due: its schedule slot in an open
	// loop, the client's previous response in a closed loop. sent
	// and submitted bracket the submit call; done is when the response
	// reached the benchmark.
	due, sent, submitted, done time.Time

	refused error // synchronous admission error (nothing was queued)
	gen     serve.GenResponse
	cls     serve.Response
}

// err returns the request's admission or response error.
func (r *record) err() error {
	if r.refused != nil {
		return r.refused
	}
	if r.kind == kindGen {
		return r.gen.Err
	}
	return r.cls.Err
}

// ttftMS is the time to first token from the due time: the generator's
// lag plus the program-reported queue wait and prefill pass (the server
// delivers the stream at completion, so the first token is not
// observable from outside).
func (r *record) ttftMS() float64 {
	return ms(r.sent.Sub(r.due)) + r.gen.QueueMS + r.gen.PrefillMS
}

// tpotMS is the mean time per output token after the first.
func (r *record) tpotMS() float64 {
	return (ms(r.done.Sub(r.due)) - r.ttftMS()) / float64(r.nTokens-1)
}

// switchRec is one level-switch call.
type switchRec struct {
	level           int
	due, start, end time.Time
	err             error
}

// run is one warm-up plus measured window against a deployment.
type run struct {
	w0, w1   time.Time // the measured window
	recs     []*record
	switches []switchRec
	c0, c1   counters // counters at w0 and w1
	heapMB   float64  // live heap after runtime.GC() at the end of the window
}

// inWindow reports whether a request was due inside the window.
func (rn *run) inWindow(r *record) bool { return !r.due.Before(rn.w0) && r.due.Before(rn.w1) }

// sampleEvery is the share (1 in N, chosen from the seed at send time)
// of the window's requests whose payloads are kept for the output
// check; the first response of each kind at every level is kept too.
const sampleEvery = 16

// drive runs the workload against a started deployment: warm-up, then
// the window. The warm-up opens with one classification. One goroutine
// generates the load; it sends every request and, for a closed loop,
// the next one of a client when its response arrives. Each sent
// request has a waiter goroutine that receives the response. A control
// goroutine makes the switch calls, another reads the counters at the
// window edges. drive returns after every response has arrived and
// every goroutine it started has ended. spans may be nil.
func drive(d *deployment, w *workload, seed int64, warmup, window time.Duration, spans *spanLog) *run {
	begin := time.Now()
	rn := &run{w0: begin.Add(warmup)}
	rn.w1 = rn.w0.Add(window)

	switchCall := func(level int, due time.Time) {
		sw := switchRec{level: level, due: due, start: time.Now()}
		sw.err = d.switchTo(level)
		sw.end = time.Now()
		rn.switches = append(rn.switches, sw)
		spans.switchCall(sw)
	}
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		sleepUntil(rn.w0)
		rn.c0 = snapshot(d)
		sleepUntil(rn.w1)
		rn.c1 = snapshot(d)
	}()
	if w.switchEvery > 0 {
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			for k := 0; ; k++ {
				due := rn.w0.Add(time.Duration(k) * w.switchEvery)
				if !due.Before(rn.w1) {
					return
				}
				sleepUntil(due)
				switchCall(w.switchLevel(k), due)
			}
		}()
	}

	var firstAt [2][8]atomic.Bool // per kind and level: a response kept for the check
	var waiters sync.WaitGroup
	completions := make(chan *record, w.clients) // at most one outstanding per client
	// settle keeps a response's payloads if it is in the sample and
	// drops them otherwise.
	settle := func(r *record, inWin, sampled bool, level int) {
		r.sampled = inWin && (sampled || firstAt[r.kind][level].CompareAndSwap(false, true))
		if !r.sampled {
			r.prompt, r.gen.Tokens, r.cls.Out = nil, nil, nil
		}
	}
	send := func(rq request, due time.Time) {
		r := &record{request: rq, idx: len(rn.recs), promptLen: len(rq.prompt), due: due}
		rn.recs = append(rn.recs, r)
		inWin := rn.inWindow(r)
		sampled := mix(seed, int64(r.idx))%sampleEvery == 0
		r.sent = time.Now()
		switch rq.kind {
		case kindGen:
			ch, err := d.submitGen(rq.key, rq.prompt, rq.split, rq.budget)
			r.submitted = time.Now()
			if err != nil {
				r.refused, r.done, r.prompt = err, r.submitted, nil
				break
			}
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				resp := <-ch
				r.done = time.Now()
				r.gen, r.nTokens = resp, len(resp.Tokens)
				settle(r, inWin && resp.Err == nil, sampled, resp.Level)
				spans.request(r)
				if r.closed {
					completions <- r
				}
			}()
			return
		case kindCls:
			ch, err := d.submitCls(rq.key, rq.prompt)
			r.submitted = time.Now()
			if err != nil {
				r.refused, r.done, r.prompt = err, r.submitted, nil
				break
			}
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				resp := <-ch
				r.done = time.Now()
				r.cls = resp
				settle(r, inWin && resp.Err == nil, sampled, resp.Level)
				spans.request(r)
			}()
			return
		}
		spans.request(r)
		if r.closed {
			completions <- r
		}
	}
	send(warmupCls(seed), begin)

	// A lane is one ordered source of requests: an open-loop stream, or
	// a closed-loop client, whose next request is due when the last one
	// comes back.
	type lane struct {
		next   source
		head   request
		due    time.Time
		ready  bool // head waits to be sent
		closed bool
	}
	var lanes []*lane
	if w.open != nil {
		for _, s := range w.open(seed, -warmup) {
			l := &lane{next: s, head: s(), ready: true}
			l.due = rn.w0.Add(l.head.at)
			lanes = append(lanes, l)
		}
	}
	active := w.clients // closed-loop clients that have not finished
	clients := make([]*lane, w.clients)
	for c := range clients {
		l := &lane{next: w.closed(seed, c), due: begin.Add(burstAt), closed: true}
		l.head = l.next()
		if l.ready = l.due.Before(rn.w1); !l.ready {
			active--
		}
		clients[c] = l
		lanes = append(lanes, l)
	}
	fire := func(l *lane) {
		send(l.head, l.due)
		if l.closed {
			l.ready = false
			return
		}
		l.head = l.next()
		l.due = rn.w0.Add(l.head.at)
	}
	for {
		var l *lane
		for _, q := range lanes {
			if q.ready && q.due.Before(rn.w1) && (l == nil || q.due.Before(l.due)) {
				l = q
			}
		}
		if l == nil && active == 0 {
			break
		}
		var timer *time.Timer
		var timeout <-chan time.Time
		if l != nil {
			wait := time.Until(l.due)
			if wait <= 0 {
				fire(l)
				continue
			}
			timer = time.NewTimer(wait)
			timeout = timer.C
		}
		select {
		case r := <-completions:
			if timer != nil {
				timer.Stop()
			}
			c := clients[r.client]
			c.head = c.next()
			c.due = r.done
			if c.ready = c.due.Before(rn.w1); !c.ready {
				active--
			}
		case <-timeout:
			fire(l)
		}
	}
	waiters.Wait()
	ctl.Wait()

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rn.heapMB = float64(m.HeapAlloc) / (1 << 20)
	return rn
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
