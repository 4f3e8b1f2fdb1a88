package serve

import (
	"fmt"
	"math/rand"

	"rt3/internal/dvfs"
	"rt3/internal/rl"
)

// Policy is one strategy of the server's level-control loop, built by
// NewPolicy. Every control tick the loop hands decide a decision record
// whose Tick, Tel, Reward and TimingMet are already filled in; decide
// sets Level — and, for a learner, State, Explore and Epsilon. Each
// strategy is a deterministic function of its name, seed and the
// records it has seen: that is what lets ReplayTrace rebuild it from a
// trace and reproduce a run. The set is closed, so every trace a server
// records names a strategy ReplayTrace can rebuild.
type Policy interface {
	name() string // the name NewPolicy accepts
	seed() int64  // the seed it was built with (0 when unseeded)
	decide(d *Decision)
}

// NewPolicy builds a level-control strategy over the deployed levels
// (fastest first):
//
//   - "governor" drives the level from the simulated battery through the
//     dvfs energy-threshold governor — the paper's "dancing along
//     battery" behaviour — and buys one level back when the queue backs
//     up past governorHighWater;
//   - "rl" learns the level online with the paper's REINFORCE machinery,
//     conditioned on the quantized telemetry window, choosing
//     epsilon-greedily and reinforcing each decision with the reward the
//     next window credits it.
//
// seed seeds the learner's weights and exploration stream; the governor
// ignores it.
func NewPolicy(name string, levels []dvfs.Level, seed int64) (Policy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("serve: policy needs at least one level")
	}
	switch name {
	case "governor":
		return &governorPolicy{gov: dvfs.NewGovernor(levels)}, nil
	case "rl":
		return newRLPolicy(len(levels), seed)
	}
	return nil, fmt.Errorf("serve: unknown policy %q (want governor or rl)", name)
}

// governorHighWater is the queue depth at which the governor escalates
// one level faster than the battery alone would pick, trading energy
// for latency under pressure.
const governorHighWater = 64

type governorPolicy struct{ gov *dvfs.Governor }

func (p *governorPolicy) name() string { return "governor" }
func (p *governorPolicy) seed() int64  { return 0 }

func (p *governorPolicy) decide(d *Decision) {
	d.Level = p.gov.PickIndex(d.Tel.BatteryFraction)
	if d.Tel.QueueDepth >= governorHighWater && d.Level > 0 {
		d.Level--
	}
}

// The learner's hyperparameters: exploration starts at rlEpsilon and
// decays by rlEpsilonDecay per tick down to rlEpsilonMin.
const (
	rlEpsilonDecay  = 0.995
	rlEpsilonMin    = 0.02
	rlLR            = 0.05
	rlBaselineDecay = 0.7
	rlHidden        = 8
)

// rlEpsilon is a variable only so tests can build switch-happy learners.
var rlEpsilon = 0.3

// rlPolicy is the online REINFORCE learner: the rl.Controller's set head
// picks one of the deployed levels per tick from the state the
// telemetry window quantizes into.
type rlPolicy struct {
	rngSeed   int64
	numLevels int
	space     rl.StateSpace
	ctrl      *rl.Controller
	base      *rl.Baseline
	rng       *rand.Rand
	eps       float64
	prev      *rl.Episode // last decision's episode, pending its reward
}

func newRLPolicy(numLevels int, seed int64) (*rlPolicy, error) {
	space := rl.DefaultStateSpace()
	rng := rand.New(rand.NewSource(seed))
	ctrl, err := rl.NewController(rl.Config{
		Hidden:  rlHidden,
		NumSets: numLevels, NumPatterns: 1, Levels: 1, K: 1,
		LR:     rlLR,
		States: space.States(),
	}, rng)
	if err != nil {
		return nil, err
	}
	return &rlPolicy{
		rngSeed: seed, numLevels: numLevels, space: space,
		ctrl: ctrl, base: rl.NewBaseline(rlBaselineDecay), rng: rng, eps: rlEpsilon,
	}, nil
}

func (p *rlPolicy) name() string { return "rl" }
func (p *rlPolicy) seed() int64  { return p.rngSeed }

// decide first reinforces the previous decision with the reward this
// tick credits it, then quantizes the window into the controller's
// context state and picks the next level epsilon-greedily.
func (p *rlPolicy) decide(d *Decision) {
	if p.prev != nil {
		p.ctrl.Reinforce(p.prev, p.base.Update(d.Reward))
	}
	tel := d.Tel
	ratio := 0.0
	if tel.TargetMS > 0 && tel.Window.Samples > 0 {
		ratio = tel.Window.P99MS / tel.TargetMS
	}
	d.State = p.space.Encode(ratio, tel.BatteryFraction, tel.Window.FillRatio)
	d.Epsilon = p.eps
	if p.rng.Float64() < p.eps {
		d.Explore = true
		p.prev = p.ctrl.SampleSetFrom(d.State, p.rng)
	} else {
		p.prev = p.ctrl.GreedySetFrom(d.State)
	}
	if p.eps *= rlEpsilonDecay; p.eps < rlEpsilonMin {
		p.eps = rlEpsilonMin
	}
	d.Level = p.prev.SetChoices[0] % p.numLevels
}
