package main

import (
	"errors"
	"math"
	"runtime"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/metrics"
	"rt3/internal/serve"
	"rt3/internal/spec"
)

// counters is a snapshot of the counters the program exports, summed
// over the deployment's nodes, plus the Go runtime's.
type counters struct {
	steps, tokens   int64 // Engine.DecodeStats: fused decode steps and their tokens
	batches, seqs   int64 // Engine.BatchStats: fused classification passes
	switches        int   // Recorder.Switches: level installs and their wall time
	switchWallMS    float64
	radix           spec.RadixStats
	router          cluster.Stats
	dispatches      []int64 // per node
	drains, drainMS float64 // rt3_cluster_drain_ms count and sum
	totalAlloc      uint64
	numGC           uint32
}

func snapshot(d *deployment) counters {
	var c counters
	for _, e := range d.engines {
		s := e.DecodeStats()
		c.steps += s.Steps
		c.tokens += s.Tokens
		b, q, _ := e.BatchStats()
		c.batches += b
		c.seqs += q
	}
	for _, s := range d.servers {
		n, _, wall := s.Recorder().Switches()
		c.switches += n
		c.switchWallMS += wall
		if st, ok := s.PrefixCacheStats(); ok {
			c.radix = st
		}
	}
	if d.router != nil {
		c.router = d.router.Stats()
		for _, nd := range d.router.Nodes() {
			c.dispatches = append(c.dispatches, nd.Dispatches())
		}
		snap := d.router.Metrics().Snapshot()
		c.drains, c.drainMS = snap["rt3_cluster_drain_ms_count"], snap["rt3_cluster_drain_ms_sum"]
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.totalAlloc, c.numGC = m.TotalAlloc, m.NumGC
	return c
}

// outcome counts a window's requests.
type outcome struct {
	attempted, succeeded, refused, failed int
	mismatches, verified                  int
	genOK, clsOK                          int // succeeded, by kind
}

// windowRecords returns the requests due in the window.
func (rn *run) windowRecords() []*record {
	var out []*record
	for _, r := range rn.recs {
		if rn.inWindow(r) {
			out = append(out, r)
		}
	}
	return out
}

func (rn *run) outcome() outcome {
	var o outcome
	for _, r := range rn.windowRecords() {
		o.attempted++
		switch {
		case r.refused != nil:
			o.refused++
		case r.err() != nil:
			o.failed++
		default:
			o.succeeded++
			if r.kind == kindGen {
				o.genOK++
			} else {
				o.clsOK++
			}
		}
	}
	return o
}

// lagP90 is how late the generator sent the window's requests, p90.
func (rn *run) lagP90() float64 {
	var lag []float64
	for _, r := range rn.windowRecords() {
		lag = append(lag, ms(r.sent.Sub(r.due)))
	}
	return metrics.Quantile(lag, 0.9)
}

// genTokens is the number of generated tokens that fall in [lo, hi):
// each response's first token counts at its first-token time, the rest
// are spread evenly from there to the response.
func (rn *run) genTokens(lo, hi time.Time) float64 {
	total := 0.0
	for _, r := range rn.recs {
		if r.kind != kindGen || r.err() != nil || r.nTokens == 0 {
			continue
		}
		first := r.sent.Add(msDuration(r.gen.QueueMS + r.gen.PrefillMS))
		if !first.Before(lo) && first.Before(hi) {
			total++
		}
		rest := float64(r.nTokens - 1)
		if rest == 0 {
			continue
		}
		if !r.done.After(first) {
			if !r.done.Before(lo) && r.done.Before(hi) {
				total += rest
			}
			continue
		}
		a, b := maxTime(first, lo), minTime(r.done, hi)
		if b.After(a) {
			total += rest * float64(b.Sub(a)) / float64(r.done.Sub(first))
		}
	}
	return total
}

// subWindows is how many equal parts of the window the end-to-end rates,
// shares and latency percentiles are computed on; the median over the
// parts is reported, so that a host slowdown during part of a run moves
// them less. Each part still holds tens of samples beyond its p90.
const subWindows = 5

// latencies collects a span of the window's successful requests'
// latencies and SLO outcomes.
type latencies struct {
	ttft, tpot, cls, sw []float64
	met, attempted      int
}

func (rn *run) latencies(w *workload, lo, hi time.Time) latencies {
	var l latencies
	for _, r := range rn.recs {
		if r.due.Before(lo) || !r.due.Before(hi) {
			continue
		}
		l.attempted++
		if r.err() != nil || r.mismatch {
			continue
		}
		if r.kind == kindCls {
			lat := ms(r.done.Sub(r.due))
			l.cls = append(l.cls, lat)
			if lat <= w.sloTTFT {
				l.met++
			}
			continue
		}
		t := r.ttftMS()
		l.ttft = append(l.ttft, t)
		ok := t <= w.sloTTFT
		if r.nTokens > 1 {
			p := r.tpotMS()
			l.tpot = append(l.tpot, p)
			ok = ok && p <= w.sloTPOT
		}
		if ok {
			l.met++
		}
	}
	for _, s := range rn.switches {
		if s.err == nil && !s.due.Before(lo) && s.due.Before(hi) {
			l.sw = append(l.sw, ms(s.end.Sub(s.start)))
		}
	}
	return l
}

// endToEnd computes the timed run's end-to-end metrics, plus the pooled
// tails the traced run reports per layer. o carries the output-check
// mismatches.
func endToEnd(w *workload, rn *run, o outcome, setupS float64) map[string]float64 {
	parts := map[string][]float64{}
	part := rn.w1.Sub(rn.w0) / subWindows
	for i := 0; i < subWindows; i++ {
		lo := rn.w0.Add(time.Duration(i) * part)
		l := rn.latencies(w, lo, lo.Add(part))
		parts["gen_tok_s"] = append(parts["gen_tok_s"], rn.genTokens(lo, lo.Add(part))/part.Seconds())
		parts["ttft_ms_p50"] = append(parts["ttft_ms_p50"], metrics.Quantile(l.ttft, 0.5))
		parts["ttft_ms_p90"] = append(parts["ttft_ms_p90"], metrics.Quantile(l.ttft, 0.9))
		parts["tpot_ms_p50"] = append(parts["tpot_ms_p50"], metrics.Quantile(l.tpot, 0.5))
		parts["slo_met_frac"] = append(parts["slo_met_frac"], ratio(float64(l.met), float64(l.attempted)))
	}
	all := rn.latencies(w, rn.w0, rn.w1)
	m := map[string]float64{
		"setup_s":          setupS,
		"ok_frac":          1 - ratio(float64(o.refused+o.failed+o.mismatches), float64(o.attempted)),
		"heap_after_gc_mb": rn.heapMB,
		"tpot_ms_p90":      metrics.Quantile(all.tpot, 0.9),
		"cls_ms_p50":       metrics.Quantile(all.cls, 0.5),
		"cls_ms_p90":       metrics.Quantile(all.cls, 0.9),
		"switch_ms_p50":    metrics.Quantile(all.sw, 0.5),
	}
	for k, v := range parts {
		m[k] = metrics.Quantile(v, 0.5)
	}
	return m
}

// allocPerToken is the heap bytes allocated in the window per generated
// token, and gcCycles the collections it ran.
func (rn *run) allocPerToken() float64 {
	return ratio(float64(rn.c1.totalAlloc-rn.c0.totalAlloc), rn.genTokens(rn.w0, rn.w1))
}

func (rn *run) gcCycles() float64 { return float64(rn.c1.numGC - rn.c0.numGC) }

// perLayer computes the traced run's per-layer metrics from the
// window's records and the counter deltas.
func perLayer(rn *run, d *deployment) map[string]float64 {
	c0, c1 := rn.c0, rn.c1
	var queue, prefill, submit []float64
	hitRows, lookupRows, refused := 0, 0, 0
	for _, r := range rn.windowRecords() {
		submit = append(submit, float64(r.submitted.Sub(r.sent).Nanoseconds())/1e3)
		if r.refused != nil {
			if errors.Is(r.refused, cluster.ErrNoReadyNodes) || errors.Is(r.refused, serve.ErrQueueFull) {
				refused++
			}
			continue
		}
		if r.kind != kindGen || r.err() != nil {
			continue
		}
		queue = append(queue, r.gen.QueueMS)
		prefill = append(prefill, r.gen.PrefillMS)
		if r.split > 0 {
			hitRows += r.gen.CachedRows
			lookupRows += r.promptLen - 1 // the last suffix row is always computed
		}
	}
	m := map[string]float64{
		"serve.queue_ms_p50":        metrics.Quantile(queue, 0.5),
		"serve.queue_ms_p90":        metrics.Quantile(queue, 0.9),
		"serve.prefill_ms_p50":      metrics.Quantile(prefill, 0.5),
		"serve.seqs_per_step":       ratio(float64(c1.tokens-c0.tokens), float64(c1.steps-c0.steps)),
		"serve.cls_batch_fill":      ratio(float64(c1.seqs-c0.seqs), float64(c1.batches-c0.batches)*maxBatch),
		"rtswitch.switch_wall_ms":   ratio(c1.switchWallMS-c0.switchWallMS, float64(c1.switches-c0.switches)),
		"cluster.drain_ms_mean":     ratio(c1.drainMS-c0.drainMS, c1.drains-c0.drains),
		"cluster.submit_us_p50":     metrics.Quantile(submit, 0.5),
		"cluster.refused":           float64(refused),
		"cluster.node_share_max":    1,
		"cluster.affinity_hit_frac": 0,
		"spec.prefix_hit_row_frac":  ratio(float64(hitRows), float64(lookupRows)),
		"spec.evicted_rows":         float64(c1.radix.EvictedRows - c0.radix.EvictedRows),
		"spec.used_rows":            float64(c1.radix.UsedRows),
		"loadgen.lag_ms_p90":        rn.lagP90(),
	}
	if d.router != nil {
		hits := float64(c1.router.AffinityHits - c0.router.AffinityHits)
		misses := float64(c1.router.AffinityMisses - c0.router.AffinityMisses)
		m["cluster.affinity_hit_frac"] = ratio(hits, hits+misses)
		var total, top float64
		for i := range c1.dispatches {
			n := float64(c1.dispatches[i] - c0.dispatches[i])
			total += n
			top = math.Max(top, n)
		}
		m["cluster.node_share_max"] = ratio(top, total)
	}
	return m
}

func msDuration(v float64) time.Duration { return time.Duration(v * 1e6) }

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
