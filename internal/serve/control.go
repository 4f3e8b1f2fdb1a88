package serve

import (
	"fmt"
	"sync"
	"time"

	"rt3/internal/dvfs"
	"rt3/internal/hwsim"
	"rt3/internal/obs"
	"rt3/internal/rl"
)

const (
	// controlEvery is the control tick period: each tick samples the
	// telemetry window, asks the policy for a level, and applies a switch.
	controlEvery = 10 * time.Millisecond
	// traceCap bounds the decisions a controller retains. Once ticks are
	// dropped the trace is no longer replayable — DecisionTrace.Dropped
	// records how many were lost.
	traceCap = 65536
)

// Telemetry is one sampled snapshot of the live serving signals a
// policy decides on: the recorder's sliding latency/fill window, queue
// depth, simulated battery charge, throughput rates differenced over the
// last tick, and the level the window ran at. The control loop samples
// it from the running server; tests construct it directly, so decisions
// are exercisable without wall-clock time.
type Telemetry struct {
	Window          WindowStats
	QueueDepth      int
	BatteryFraction float64
	Level           int     // active level when sampled
	TargetMS        float64 // latency objective (0 disables the term)
	CompletedPerSec float64 // completions/sec over the last tick
	TokensPerSec    float64 // generated tokens/sec over the last tick
}

// Decision records one control tick. Tick, Tel, Reward and TimingMet
// are filled by the controller, Level (and, for a learner, State,
// Explore and Epsilon) by the policy; together they are the
// replay-checked surface. Switched and SwitchCostMS are filled in by the
// live loop when the decision was applied as a switch.
type Decision struct {
	Tick    int
	Tel     Telemetry
	State   int     // encoded rl state the decision conditioned on
	Level   int     // level the policy chose
	Explore bool    // exploration (sampled) vs exploitation (greedy)
	Epsilon float64 // exploration rate at this tick
	// Reward is the online reward credited to the previous decision from
	// this tick's window (0 on the first tick); TimingMet is its latency
	// verdict.
	Reward    float64
	TimingMet bool

	Switched     bool    // the loop applied a live switch for this decision
	SwitchCostMS float64 // modeled swap cost charged when it did
}

// SameAs reports whether two decisions agree on the replay-checked
// surface (everything Step computes; the applied-switch fields are
// live-loop bookkeeping and excluded).
func (d Decision) SameAs(o Decision) bool {
	return d.Tick == o.Tick && d.State == o.State && d.Level == o.Level &&
		d.Explore == o.Explore && d.Epsilon == o.Epsilon &&
		d.Reward == o.Reward && d.TimingMet == o.TimingMet
}

// DecisionTrace is the auditable record of a controller run: the policy
// name and seed plus every decision in tick order. Because Step is a
// pure function of (policy, seed, telemetry sequence), feeding the
// recorded telemetry back through a fresh controller reproduces the
// decisions exactly — ReplayTrace is the auditor.
type DecisionTrace struct {
	Policy    string
	Seed      int64
	Decisions []Decision
	// Dropped counts decisions evicted by the trace cap; a trace with
	// Dropped > 0 is not replayable (the decision history is incomplete).
	Dropped int
}

// Controller is the level-control loop's state, shared by every
// policy: each Step credits the previous decision with the reward the
// observed window implies (rl.OnlineReward), lets the policy choose the
// next level, and appends the decision to a bounded trace. It never
// touches the clock or the server: the live loop samples telemetry and
// applies switches, tests drive Step directly with synthetic windows.
type Controller struct {
	mu        sync.Mutex
	pol       Policy
	costs     []hwsim.LevelCost
	every     time.Duration // live tick period
	tick      int
	prevLevel int

	trace    []Decision
	traceCap int
	dropped  int

	// cumulative run accounting (guarded by mu), exposed via
	// registerMetrics so the controller is observable live.
	explores   int     // exploration (sampled) decisions
	violations int     // ticks whose reward verdict missed the target
	applied    int     // decisions the loop applied as live switches
	rewardSum  float64 // cumulative online reward (may be negative)
	epsilon    float64 // exploration rate of the latest decision
}

// NewController builds a controller running pol over the deployed
// levels (fastest first, the bundle convention). cyclesPerInference
// feeds the hwsim cost table the reward's relative-energy term reads.
func NewController(levels []dvfs.Level, power dvfs.PowerModel, cyclesPerInference float64, pol Policy) (*Controller, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("serve: controller needs at least one level")
	}
	if cyclesPerInference <= 0 {
		return nil, fmt.Errorf("serve: controller needs positive cyclesPerInference, got %g", cyclesPerInference)
	}
	return &Controller{
		pol:      pol,
		costs:    hwsim.LevelCosts(levels, power, cyclesPerInference),
		every:    controlEvery,
		traceCap: traceCap,
	}, nil
}

// Step runs one control tick on a telemetry snapshot and returns the
// decision: the previous decision is credited with the reward the
// observed window implies, then the policy chooses the next level.
// Deterministic given the construction arguments and the telemetry
// sequence — no clock, no global state.
func (c *Controller) Step(tel Telemetry) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	d := Decision{Tick: c.tick, Tel: tel, TimingMet: true}

	// The energy term reads tel.Level — the level the server actually
	// served the window at — not the level the previous decision asked
	// for: if the loop's switch was rejected the two differ, and
	// crediting the requested level would reinforce a phantom bonus.
	ranAt := tel.Level
	if ranAt < 0 || ranAt >= len(c.costs) {
		ranAt = c.prevLevel
	}
	if c.tick > 1 {
		rr := rl.OnlineReward(rl.OnlineRewardInput{
			Samples:         tel.Window.Samples,
			P99MS:           tel.Window.P99MS,
			TargetMS:        tel.TargetMS,
			RelEnergy:       c.costs[ranAt].RelEnergy,
			BatteryFraction: tel.BatteryFraction,
		})
		d.Reward, d.TimingMet = rr.Reward, rr.TimingMet
		c.rewardSum += rr.Reward
		if !rr.TimingMet {
			c.violations++
		}
	}

	c.pol.decide(&d)
	c.prevLevel = d.Level
	c.epsilon = d.Epsilon
	if d.Explore {
		c.explores++
	}
	if len(c.trace) >= c.traceCap {
		c.trace = c.trace[1:]
		c.dropped++
	}
	c.trace = append(c.trace, d)
	return d
}

// markApplied annotates the trace entry of the given tick with the live
// switch the loop performed for it.
func (c *Controller) markApplied(tick int, costMS float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.applied++
	for i := len(c.trace) - 1; i >= 0; i-- {
		if c.trace[i].Tick == tick {
			c.trace[i].Switched = true
			c.trace[i].SwitchCostMS = costMS
			return
		}
	}
}

// registerMetrics exposes the controller's cumulative run accounting on
// an obs registry as read-callbacks (all mu-guarded snapshots).
func (c *Controller) registerMetrics(reg *obs.Registry) {
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return f()
		}
	}
	reg.CounterFunc("rt3_autotune_ticks_total", "Control ticks stepped.",
		locked(func() float64 { return float64(c.tick) }))
	reg.CounterFunc("rt3_autotune_explore_total", "Exploration (sampled) decisions.",
		locked(func() float64 { return float64(c.explores) }))
	reg.CounterFunc("rt3_autotune_applied_total", "Decisions applied as live switches.",
		locked(func() float64 { return float64(c.applied) }))
	reg.CounterFunc("rt3_autotune_timing_violations_total",
		"Ticks whose reward verdict missed the latency target.",
		locked(func() float64 { return float64(c.violations) }))
	reg.GaugeFunc("rt3_autotune_reward_sum", "Cumulative online reward (may be negative).",
		locked(func() float64 { return c.rewardSum }))
	reg.GaugeFunc("rt3_autotune_epsilon", "Exploration rate of the latest decision (0 for the governor).",
		locked(func() float64 { return c.epsilon }))
}

// Trace snapshots the decision record so far.
func (c *Controller) Trace() DecisionTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DecisionTrace{
		Policy:    c.pol.name(),
		Seed:      c.pol.seed(),
		Decisions: append([]Decision(nil), c.trace...),
		Dropped:   c.dropped,
	}
}

// ReplayTrace re-runs a recorded decision trace through a fresh
// controller running the trace's policy from its seed, feeding each
// recorded telemetry snapshot back through Step, and verifies every
// replayed decision matches the recorded one. It returns the replayed
// decisions; a mismatch (or an unreplayable truncated trace) is an
// error. This is the audit path: any run's level choices can be
// reproduced and inspected offline, without wall-clock time or a live
// server.
func ReplayTrace(levels []dvfs.Level, power dvfs.PowerModel, cyclesPerInference float64, tr DecisionTrace) ([]Decision, error) {
	if tr.Dropped > 0 {
		return nil, fmt.Errorf("serve: trace dropped %d decisions (trace cap exceeded); not replayable", tr.Dropped)
	}
	pol, err := NewPolicy(tr.Policy, levels, tr.Seed)
	if err != nil {
		return nil, err
	}
	c, err := NewController(levels, power, cyclesPerInference, pol)
	if err != nil {
		return nil, err
	}
	out := make([]Decision, 0, len(tr.Decisions))
	for i, rec := range tr.Decisions {
		got := c.Step(rec.Tel)
		if !got.SameAs(rec) {
			return out, fmt.Errorf("serve: replay diverged at tick %d (decision %d): recorded level %d state %d explore %v reward %g, replayed level %d state %d explore %v reward %g",
				rec.Tick, i, rec.Level, rec.State, rec.Explore, rec.Reward, got.Level, got.State, got.Explore, got.Reward)
		}
		out = append(out, got)
	}
	return out, nil
}

// controlLoop is the server's level-control loop: every control tick it
// samples live telemetry (sliding latency/fill window, queue depth,
// battery charge, throughput deltas), runs one controller Step, and
// applies the decision as a guarded live switch through the same drain
// path every reconfiguration takes — so in generation mode a switch
// lands at decode-step granularity, mid-generation.
func (s *Server) controlLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.ctrl.every)
	defer ticker.Stop()
	prevDone, prevTok := s.rec.Counters()
	last := time.Now()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			now := time.Now()
			dt := now.Sub(last).Seconds()
			last = now
			done, tok := s.rec.Counters()
			tel := Telemetry{
				Window:          s.rec.RecentStats(),
				QueueDepth:      len(s.in) + len(s.genIn),
				BatteryFraction: s.BatteryFraction(),
				Level:           s.eng.Level(),
				TargetMS:        s.cfg.TargetMS,
			}
			if dt > 0 {
				tel.CompletedPerSec = float64(done-prevDone) / dt
				tel.TokensPerSec = float64(tok-prevTok) / dt
			}
			prevDone, prevTok = done, tok
			dec := s.ctrl.Step(tel)
			if dec.Level != tel.Level {
				// a rejected switch (the engine validates and rolls
				// back) leaves Switched false in the trace, and the
				// next tick's Telemetry.Level shows the level the
				// server actually kept — Step credits reward against
				// that, never against the unapplied request.
				if cost, err := s.SwitchTo(dec.Level); err == nil {
					s.ctrl.markApplied(dec.Tick, cost)
					s.tracer.NoteAutotuneTick(int64(dec.Tick))
					dec.Switched, dec.SwitchCostMS = true, cost
				}
			}
			if s.cfg.OnDecision != nil {
				s.cfg.OnDecision(dec)
			}
		}
	}
}

// DecisionTrace snapshots the control loop's decision record; ok is
// false when no Config.Policy is set.
func (s *Server) DecisionTrace() (DecisionTrace, bool) {
	if s.ctrl == nil {
		return DecisionTrace{}, false
	}
	return s.ctrl.Trace(), true
}
