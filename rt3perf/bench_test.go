package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// draw returns the first n requests of every stream and client of a
// workload for a seed.
func draw(w *workload, seed int64, n int) [][]request {
	var out [][]request
	take := func(s source) {
		var rs []request
		for i := 0; i < n; i++ {
			rs = append(rs, s())
		}
		out = append(out, rs)
	}
	if w.open != nil {
		for _, s := range w.open(seed, -time.Second) {
			take(s)
		}
	}
	for c := 0; c < w.clients; c++ {
		take(w.closed(seed, c))
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b := draw(w, 7, 300), draw(w, 7, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two request sequences", w.name)
		}
		if reflect.DeepEqual(a, draw(w, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.name)
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program prints.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	}
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	var e2e, layer []metricSpec
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted by the program:\n%v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(layer, perLayerMetrics()) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted by the program:\n%v", layer, perLayerMetrics())
	}
}

// smoke runs one short run with a short warm-up and returns its result.
func smoke(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	const seed, warm = 3, 300 * time.Millisecond
	window := 2 * time.Second
	if raceEnabled && w.clients > 0 {
		// the first closed-loop generations take about 10 s under the
		// detector, so a 2-s window would see no client send again; an
		// open loop keeps its rate and would only queue more
		window = 15 * time.Second
	}
	var out bytes.Buffer
	var res *result
	var err error
	if trace {
		res, err = tracedRun(&out, w, seed, warm, window, t.TempDir())
	} else {
		res, err = timedRun(&out, w, seed, warm, window)
	}
	if err != nil {
		t.Fatalf("%s trace %t: %v\n%s", w.name, trace, err, out.String())
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s trace %t: correct %t, attempted %d\n%s", w.name, trace, res.Correct, res.Attempted, out.String())
	}
	return res
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		res := smoke(t, w, false)
		for _, m := range endToEndMetrics {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s: %s printed as %+v", w.name, m.name, got)
			}
		}
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: printed %d end-to-end metrics, want %d", w.name, len(res.Metrics), len(endToEndMetrics))
		}

		res = smoke(t, w, true)
		for _, m := range perLayerMetrics() {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: %s printed as %+v", w.name, m.name, got)
			}
		}
		if len(res.Metrics) != len(perLayerMetrics()) {
			t.Errorf("%s: printed %d per-layer metrics, want %d", w.name, len(res.Metrics), len(perLayerMetrics()))
		}
		hit := res.Metrics["spec.prefix_hit_row_frac"].Value
		evicted := res.Metrics["spec.evicted_rows"].Value
		if w == sharedPrefix {
			if hit <= 0 || hit >= 1 || (evicted <= 0 && !raceEnabled) {
				t.Errorf("shared-prefix: prefix hit row share %g, evicted rows %g", hit, evicted)
			}
		} else if hit != 0 || evicted != 0 {
			t.Errorf("%s: prefix cache used (hit row share %g, evicted rows %g)", w.name, hit, evicted)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := benchMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload: exit 0")
	}
	if strings.Contains(out.String(), "{") {
		t.Fatalf("unknown workload printed a result: %s", out.String())
	}
}
