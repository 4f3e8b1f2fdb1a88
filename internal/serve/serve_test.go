package serve_test

import (
	"math/rand"
	"testing"
	"time"

	"rt3/internal/deploy"
	"rt3/internal/dvfs"
	"rt3/internal/mat"
	"rt3/internal/pattern"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// levelNames / sparsities define the three-section test deployment
// ({l6, l4, l3}, the paper's evaluation levels, fastest first).
var (
	levelNames = []string{"l6", "l4", "l3"}
	sparsities = []float64{0.3, 0.5, 0.7}
)

// newTestDeployment builds a tiny classifier, serializes its bundle
// through bytes (exercising the wire format), reloads it, and deploys it
// onto the requested number of cloned replicas.
func newTestDeployment(t testing.TB, replicas int) (*serve.Engine, *deploy.Bundle) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	model := transformer.NewClassifier(transformer.Config{
		Vocab: 24, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, SeqLen: 10, Classes: 3,
	}, rng)
	ref := model.PrunableLinears()[0].W.Value
	var sets []*pattern.Set
	for _, sp := range sparsities {
		sets = append(sets, pattern.GenerateSet(ref, 4, sp, 3, rng))
	}
	data, err := serve.BundleFromModel(model, sets, levelNames).Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := deploy.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var ms []serve.Model
	for i := 0; i < replicas; i++ {
		ms = append(ms, model.Clone())
	}
	eng, err := serve.NewEngine(loaded, ms, rtswitch.DefaultSwitchCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return eng, loaded
}

func randSeqs(n, seqLen, vocab int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		seq := make([]int, seqLen)
		for j := range seq {
			seq[j] = rng.Intn(vocab)
		}
		out[i] = seq
	}
	return out
}

// TestEnginePackedMatchesDense verifies the core serving invariant: at
// every level, the packed-kernel forward pass equals masked dense
// execution element-for-element, and switching charges exactly the cost
// model's pattern-swap time for the section's serialized size.
func TestEnginePackedMatchesDense(t *testing.T) {
	eng, bundle := newTestDeployment(t, 1)
	costs := rtswitch.DefaultSwitchCostModel()
	seqs := randSeqs(4, 10, 24, 5)
	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		cost, err := eng.SwitchTo(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if lvl > 0 {
			maskBytes, err := bundle.SetBytes(lvl)
			if err != nil {
				t.Fatal(err)
			}
			want := costs.PatternSwitchMS(maskBytes)
			if cost != want {
				t.Fatalf("level %d switch cost %g, want %g", lvl, cost, want)
			}
		}
		for _, ids := range seqs {
			got := eng.Forward(0, ids)
			ref, err := eng.DenseForward(lvl, ids)
			if err != nil {
				t.Fatal(err)
			}
			if !mat.Equal(got, ref, 1e-9) {
				t.Fatalf("level %s: packed forward differs from masked dense execution", eng.LevelName(lvl))
			}
		}
	}
	// sections must differ: a sparser level keeps fewer weights
	outs := make([]*mat.Matrix, eng.NumLevels())
	for lvl := range outs {
		var err error
		outs[lvl], err = eng.DenseForward(lvl, seqs[0])
		if err != nil {
			t.Fatal(err)
		}
	}
	if mat.Equal(outs[0], outs[2], 1e-12) {
		t.Fatal("fastest and slowest levels produced identical outputs; pattern sets not applied")
	}
}

// TestServerHotSwapMidTraffic is the end-to-end reconfiguration test:
// a serialized bundle is loaded into a running batched server, the level
// is switched repeatedly mid-traffic, and every response must be
// element-identical to dense execution at the level it was served on,
// with nothing dropped.
func TestServerHotSwapMidTraffic(t *testing.T) {
	eng, _ := newTestDeployment(t, 2)
	s := serve.New(eng, serve.Config{
		MaxBatch: 4,
		MaxDelay: 500 * time.Microsecond,
		QueueCap: 1024,
	})
	s.Start()

	pool := randSeqs(8, 10, 24, 7)
	const n = 200
	type tagged struct {
		poolIdx int
		ch      <-chan serve.Response
	}
	var inflight []tagged
	schedule := []int{1, 2, 0} // switch targets, applied mid-stream
	for i := 0; i < n; i++ {
		if i > 0 && i%50 == 0 {
			target := schedule[(i/50)-1]
			if _, err := s.SwitchTo(target); err != nil {
				t.Fatal(err)
			}
		}
		idx := i % len(pool)
		ch, err := s.Submit(pool[idx])
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		inflight = append(inflight, tagged{poolIdx: idx, ch: ch})
		time.Sleep(100 * time.Microsecond)
	}
	responses := make([]serve.Response, n)
	for i, p := range inflight {
		responses[i] = <-p.ch
	}
	s.Stop()

	switches, modelMS, _ := s.Recorder().Switches()
	if switches != len(schedule) {
		t.Fatalf("switches %d, want %d", switches, len(schedule))
	}
	if modelMS <= 0 {
		t.Fatal("switch cost not charged")
	}
	if d := s.Recorder().Drops(); d != 0 {
		t.Fatalf("%d requests dropped", d)
	}
	// verify every response against dense execution at its level
	refs := map[[2]int]*mat.Matrix{}
	levelsSeen := map[int]bool{}
	for i, p := range inflight {
		resp := responses[i]
		levelsSeen[resp.Level] = true
		key := [2]int{resp.Level, p.poolIdx}
		ref, ok := refs[key]
		if !ok {
			var err error
			ref, err = s.DenseReference(resp.Level, pool[p.poolIdx])
			if err != nil {
				t.Fatal(err)
			}
			refs[key] = ref
		}
		if !mat.Equal(resp.Out, ref, 1e-9) {
			t.Fatalf("response %d (level %d) differs from dense execution", i, resp.Level)
		}
	}
	if len(levelsSeen) < 2 {
		t.Fatalf("traffic only saw levels %v; switches did not take effect mid-stream", levelsSeen)
	}
}

// TestDynamicBatching checks both flush paths: a full batch flushes on
// size well before the deadline; a lone request flushes at the deadline.
func TestDynamicBatching(t *testing.T) {
	// the deadline is deliberately huge relative to service time so the
	// batch-size assertions, not wall-clock luck, decide the outcome
	const deadline = 150 * time.Millisecond
	eng, _ := newTestDeployment(t, 1)
	s := serve.New(eng, serve.Config{MaxBatch: 4, MaxDelay: deadline})
	s.Start()
	defer s.Stop()

	seq := randSeqs(1, 10, 24, 9)[0]
	var chans []<-chan serve.Response
	for i := 0; i < 4; i++ {
		ch, err := s.Submit(seq)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		resp := <-ch
		if resp.BatchSize != 4 {
			t.Fatalf("response %d rode batch of %d, want 4", i, resp.BatchSize)
		}
		if resp.TotalMS > 100 {
			t.Fatalf("full batch waited for the deadline (%.1f ms)", resp.TotalMS)
		}
	}

	ch, err := s.Submit(seq)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if resp.BatchSize != 1 {
		t.Fatalf("lone request rode batch of %d", resp.BatchSize)
	}
	if resp.TotalMS < 100 {
		t.Fatalf("lone request flushed after %.1f ms, want ~%v (deadline flush)", resp.TotalMS, deadline)
	}
}

// TestSubmitAdmission checks the bounded-queue and lifecycle errors.
func TestSubmitAdmission(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	s := serve.New(eng, serve.Config{QueueCap: 2})
	seq := randSeqs(1, 10, 24, 11)[0]
	// not started: the queue fills and the third request is rejected
	var queued []<-chan serve.Response
	for i := 0; i < 2; i++ {
		ch, err := s.Submit(seq)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, ch)
	}
	if _, err := s.Submit(seq); err != serve.ErrQueueFull {
		t.Fatalf("err %v, want ErrQueueFull", err)
	}
	if d := s.Recorder().Drops(); d != 1 {
		t.Fatalf("drops %d, want 1", d)
	}
	s.Stop()
	// never-started server: queued requests are answered with ErrStopped
	for i, ch := range queued {
		if resp := <-ch; resp.Err != serve.ErrStopped {
			t.Fatalf("queued request %d got %+v, want ErrStopped", i, resp)
		}
	}
	if _, err := s.Submit(seq); err != serve.ErrStopped {
		t.Fatalf("err %v, want ErrStopped", err)
	}
}

// TestGovernorPolicyDecisions unit-tests the battery-driven policy with
// queue-pressure escalation (at a queue depth of 64).
func TestGovernorPolicyDecisions(t *testing.T) {
	levels := []dvfs.Level{dvfs.OdroidXU3Levels[5], dvfs.OdroidXU3Levels[3], dvfs.OdroidXU3Levels[2]}
	p, err := serve.NewPolicy("governor", levels, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := serve.NewController(levels, dvfs.DefaultPowerModel(), 2e6, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		battery float64
		queue   int
		want    int
	}{
		{"full battery", 0.9, 0, 0},
		{"half battery", 0.5, 0, 1},
		{"low battery", 0.1, 0, 2},
		{"low battery below high water", 0.1, 63, 2},
		{"pressured low battery", 0.1, 64, 1},
		{"pressured half battery", 0.5, 200, 0},
		{"pressured full battery", 0.9, 64, 0},
	} {
		d := c.Step(serve.Telemetry{BatteryFraction: tc.battery, QueueDepth: tc.queue})
		if d.Level != tc.want {
			t.Errorf("%s (battery %.1f, queue %d): level %d, want %d", tc.name, tc.battery, tc.queue, d.Level, tc.want)
		}
	}
}

// TestRLPolicyLearnsEnergySaving drives the RL learner with a drained
// battery and a met latency target, the telemetry following its own
// level choices: the energy bonus must teach it to prefer the low-power
// level.
func TestRLPolicyLearnsEnergySaving(t *testing.T) {
	levels := []dvfs.Level{dvfs.OdroidXU3Levels[5], dvfs.OdroidXU3Levels[3], dvfs.OdroidXU3Levels[2]}
	p, err := serve.NewPolicy("rl", levels, 13)
	if err != nil {
		t.Fatal(err)
	}
	c, err := serve.NewController(levels, dvfs.DefaultPowerModel(), 2e6, p)
	if err != nil {
		t.Fatal(err)
	}
	tel := serve.Telemetry{
		Window:          serve.WindowStats{Samples: 64, P99MS: 1},
		BatteryFraction: 0.1,
		TargetMS:        10,
	}
	counts := make([]int, 3)
	const steps = 500
	for i := 0; i < steps; i++ {
		d := c.Step(tel)
		if d.Level < 0 || d.Level > 2 {
			t.Fatalf("level %d out of range", d.Level)
		}
		if i >= steps/2 {
			counts[d.Level]++
		}
		tel.Level = d.Level
	}
	if counts[2] <= counts[0] || counts[0] > steps/20 {
		t.Fatalf("policy did not learn energy saving: counts %v", counts)
	}
}

// TestRunLoadWithGovernor replays an open-loop ramp against a server
// whose simulated battery drains under load: the governor must perform
// live switches and every response must verify against dense execution.
func TestRunLoadWithGovernor(t *testing.T) {
	eng, _ := newTestDeployment(t, 2)
	governor, err := serve.NewPolicy("governor", eng.Levels(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(eng, serve.Config{
		MaxBatch: 4,
		MaxDelay: time.Millisecond,
		QueueCap: 4096,
		Policy:   governor,
		BatteryJ: 0.05,
	})
	s.Start()
	defer s.Stop()

	report, err := serve.RunLoad(s, serve.LoadSpec{
		Duration: 300 * time.Millisecond,
		StartRPS: 300,
		EndRPS:   800,
		SeqLen:   10,
		Vocab:    24,
		Seed:     17,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Dropped != 0 {
		t.Fatalf("%d dropped", report.Dropped)
	}
	if report.Completed != report.Offered {
		t.Fatalf("completed %d != offered %d", report.Completed, report.Offered)
	}
	if report.Switches < 1 {
		t.Fatal("no live switch under battery drain")
	}
	if report.Mismatches != 0 {
		t.Fatalf("%d of %d verified responses mismatched dense execution", report.Mismatches, report.Verified)
	}
	if len(report.Levels) < 2 {
		t.Fatalf("only %d levels served traffic", len(report.Levels))
	}
	if report.BatteryFraction >= 1 {
		t.Fatal("battery did not drain")
	}
	_ = report.String()
}
