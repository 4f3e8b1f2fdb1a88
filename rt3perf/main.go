// Command rt3perf is the repository's serving benchmark. It builds an
// RT3 deployment from a seed — one pruned LM, a pattern set per V/F
// level, the bundle round trip and the servers — runs one named
// workload against the public serving API, checks a sample of the
// outputs against masked dense execution, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// A run with -trace 0 measures the end-to-end metrics with the
// benchmark's tracing off. A run with -trace 1 repeats the workload
// untraced and then traced, reports the per-layer metrics of the traced
// window, an op replay of the decode path at every level, and the
// traced-versus-untraced difference as the tracing overhead, and
// writes the spans under .bench_build/rt3perf.
//
// Usage, from the repository root:
//
//	bash rt3perf/run.sh --workload batch-decode --seed 1 --seconds 30 --trace 0
//
// The exit status is nonzero on any output mismatch or error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rt3/internal/metrics"
)

// metricSpec names one printed metric.
type metricSpec struct {
	name, unit, better string
}

// endToEndMetrics are printed by the untraced run. A request that
// failed, was refused or whose output mismatched misses the SLO and
// lowers ok_frac. Classification latency and the wall time of a level
// switch are per-layer metrics instead: only diurnal-mixed classifies
// and switches, so they would read 0 on the other workloads. So is the
// p90 of time per output token, which hinges on whether a 96-row
// prefill happens to run ahead of a request and moved by a third to a
// half from run to run on the single-server workloads.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"gen_tok_s", "tok/s", "higher"},
	{"ttft_ms_p50", "ms", "lower"},
	{"ttft_ms_p90", "ms", "lower"},
	{"tpot_ms_p50", "ms", "lower"},
	{"slo_met_frac", "frac", "higher"},
	{"ok_frac", "frac", "higher"},
	{"heap_after_gc_mb", "MB", "lower"},
}

// overheadMetrics are the end-to-end metrics whose traced-versus-
// untraced change is reported as trace.overhead.<name>.
var overheadMetrics = []metricSpec{
	{"gen_tok_s", "frac", "higher"},
	{"ttft_ms_p50", "frac", "lower"},
	{"tpot_ms_p50", "frac", "lower"},
}

// perLayerMetrics are printed by the traced run.
func perLayerMetrics() []metricSpec {
	m := []metricSpec{
		{"deploy.decode_ms", "ms", "lower"},
		{"engine.build_ms", "ms", "lower"},
		{"nn.lm_head_us", "us", "lower"},
		{"transformer.prefill_us_per_row", "us", "lower"},
	}
	for _, lv := range levelNames {
		m = append(m,
			metricSpec{"kernel.dec_mulinto_us." + lv, "us", "lower"},
			metricSpec{"kernel.dec_mulinto_bytes." + lv, "bytes", "lower"},
			metricSpec{"transformer.decode_step_us." + lv, "us", "lower"},
			metricSpec{"transformer.attn_residual_us." + lv, "us", "lower"},
		)
	}
	m = append(m,
		metricSpec{"serve.tpot_ms_p90", "ms", "lower"},
		metricSpec{"serve.cls_ms_p50", "ms", "lower"},
		metricSpec{"serve.cls_ms_p90", "ms", "lower"},
		metricSpec{"serve.queue_ms_p50", "ms", "lower"},
		metricSpec{"serve.queue_ms_p90", "ms", "lower"},
		metricSpec{"serve.prefill_ms_p50", "ms", "lower"},
		metricSpec{"serve.seqs_per_step", "count", "higher"},
		metricSpec{"serve.cls_batch_fill", "frac", "higher"},
		metricSpec{"runtime.alloc_bytes_per_token", "bytes", "lower"},
		metricSpec{"runtime.gc_cycles", "count", "lower"},
		metricSpec{"rtswitch.switch_wall_ms", "ms", "lower"},
		metricSpec{"rtswitch.switch_call_ms_p50", "ms", "lower"},
		metricSpec{"cluster.drain_ms_mean", "ms", "lower"},
		metricSpec{"cluster.submit_us_p50", "us", "lower"},
		metricSpec{"cluster.affinity_hit_frac", "frac", "higher"},
		metricSpec{"cluster.refused", "count", "lower"},
		metricSpec{"cluster.node_share_max", "frac", "lower"},
		metricSpec{"spec.prefix_hit_row_frac", "frac", "higher"},
		metricSpec{"spec.evicted_rows", "count", "lower"},
		metricSpec{"spec.used_rows", "count", "higher"},
		metricSpec{"loadgen.lag_ms_p90", "ms", "lower"},
		metricSpec{"trace.spans", "count", "lower"},
	)
	for _, o := range overheadMetrics {
		m = append(m, metricSpec{"trace.overhead." + o.name, o.unit, o.better})
	}
	return m
}

// setupReps is how many times a run sets the deployment up; setup_s,
// deploy.decode_ms and engine.build_ms report the median.
const setupReps = 5

// warmup is the load sent before the window and not measured.
const warmup = time.Second

// traceDir is where the traced run writes its spans, relative to the
// working directory.
const traceDir = ".bench_build/rt3perf"

// lagBoundMS bounds loadgen.lag_ms_p90: a run whose generator ran later
// than this is marked invalid.
const lagBoundMS = 5.0

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rt3perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch-decode, diurnal-mixed or shared-prefix")
	seed := fs.Int64("seed", 1, "seed of the deployment and of the request sequence")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "rt3perf:", err)
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintln(stdout, hostLine())
	fmt.Fprintf(stdout, "workload %s: %s\n", w.name, w.why)

	var res *result
	if *trace == 1 {
		res, err = tracedRun(stdout, w, *seed, warmup, window, traceDir)
	} else {
		res, err = timedRun(stdout, w, *seed, warmup, window)
	}
	if err != nil {
		fmt.Fprintln(stderr, "rt3perf:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "rt3perf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "rt3perf: output mismatch")
		return 1
	}
	return 0
}

// pass is one deployment driven through one window.
type pass struct {
	d                         *deployment
	rn                        *run
	o                         outcome
	setupS, decodeMS, buildMS float64 // medians over the set-ups
}

// runPass sets the deployment up setups times, keeping the last, then
// drives the workload and checks the outputs. The caller closes p.d.
// Each set-up starts from a collected heap, so that the garbage of the
// one before is not collected inside its timing.
func runPass(w *workload, seed int64, warmup, window time.Duration, setups int, spans *spanLog) (*pass, error) {
	var su, dec, bld []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		runtime.GC()
		var err error
		if d, err = setUp(w, seed); err != nil {
			return nil, err
		}
		su, dec, bld = append(su, d.setupS), append(dec, d.decodeMS), append(bld, d.buildMS)
	}
	runtime.GC()
	rn := drive(d, w, seed, warmup, window, spans)
	o := rn.outcome()
	if err := verify(d, rn, &o); err != nil {
		d.close()
		return nil, err
	}
	return &pass{d: d, rn: rn, o: o, setupS: metrics.Quantile(su, 0.5),
		decodeMS: metrics.Quantile(dec, 0.5), buildMS: metrics.Quantile(bld, 0.5)}, nil
}

// report prints a pass's request counts and validity.
func (p *pass) report(out io.Writer, label string) {
	o := p.o
	failedSwitches := 0
	for _, s := range p.rn.switches {
		if s.err != nil {
			failedSwitches++
		}
	}
	fmt.Fprintf(out, "%s: sent %d, succeeded %d (%d generations, %d classifications), refused %d, failed %d; "+
		"output check: %d verified, %d mismatches; %d switch calls, %d failed\n",
		label, o.attempted, o.succeeded, o.genOK, o.clsOK, o.refused, o.failed, o.verified, o.mismatches,
		len(p.rn.switches), failedSwitches)
	for _, r := range p.rn.windowRecords() {
		if err := r.err(); err != nil {
			fmt.Fprintf(out, "%s: request %d: %v\n", label, r.idx, err)
		}
	}
	if lag := p.rn.lagP90(); lag > lagBoundMS {
		fmt.Fprintf(out, "%s: INVALID: generator lag p90 %.3f ms exceeds %.1f ms\n", label, lag, lagBoundMS)
	} else {
		fmt.Fprintf(out, "%s: valid: generator lag p90 %.3f ms within %.1f ms\n", label, lag, lagBoundMS)
	}
}

func (p *pass) failed() int { return p.o.refused + p.o.failed + p.o.mismatches }

func timedRun(out io.Writer, w *workload, seed int64, warmup, window time.Duration) (*result, error) {
	p, err := runPass(w, seed, warmup, window, setupReps, nil)
	if err != nil {
		return nil, err
	}
	p.d.close()
	p.report(out, "timed run")
	return emit(out, endToEndMetrics, endToEnd(w, p.rn, p.o, p.setupS), p), nil
}

func tracedRun(out io.Writer, w *workload, seed int64, warmup, window time.Duration, traceDir string) (*result, error) {
	base, err := runPass(w, seed, warmup, window, 1, nil)
	if err != nil {
		return nil, err
	}
	base.d.close()
	base.report(out, "untraced run")

	spans := &spanLog{}
	p, err := runPass(w, seed, warmup, window, setupReps, spans)
	if err != nil {
		return nil, err
	}
	defer p.d.close()
	p.report(out, "traced run")
	m := perLayer(p.rn, p.d)
	tracedE2E := endToEnd(w, p.rn, p.o, p.setupS)
	for _, k := range []string{"tpot_ms_p90", "cls_ms_p50", "cls_ms_p90"} {
		m["serve."+k] = tracedE2E[k]
	}
	m["rtswitch.switch_call_ms_p50"] = tracedE2E["switch_ms_p50"]
	m["deploy.decode_ms"], m["engine.build_ms"] = p.decodeMS, p.buildMS
	m["trace.spans"] = float64(spans.len())
	// the runtime's figures come from the untraced window, whose heap
	// holds no spans
	m["runtime.alloc_bytes_per_token"], m["runtime.gc_cycles"] = base.rn.allocPerToken(), base.rn.gcCycles()
	baseE2E := endToEnd(w, base.rn, base.o, base.setupS)
	for _, o := range overheadMetrics {
		m["trace.overhead."+o.name] = ratio(tracedE2E[o.name]-baseE2E[o.name], baseE2E[o.name])
	}
	p.d.stop()
	replay, err := opReplay(p.d, w.replay, seed)
	if err != nil {
		return nil, fmt.Errorf("op replay: %w", err)
	}
	for k, v := range replay {
		m[k] = v
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := spans.write(path, p.rn.w0); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "traced run: %d spans written to %s\n", spans.len(), path)
	res := emit(out, perLayerMetrics(), m, p)
	res.Correct = res.Correct && base.o.mismatches == 0
	return res, nil
}

// emit prints every metric of specs by name with its unit and builds
// the result line.
func emit(out io.Writer, specs []metricSpec, values map[string]float64, p *pass) *result {
	res := &result{
		Correct:   p.o.mismatches == 0,
		Attempted: p.o.attempted,
		Failed:    p.failed(),
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		v := values[s.name]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", s.name, v, s.unit)
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res
}
