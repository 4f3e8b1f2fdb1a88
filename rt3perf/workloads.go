package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rt3/internal/chaos"
	"rt3/internal/serve"
)

// kind is the traffic class of a request.
type kind uint8

const (
	kindGen kind = iota // generation through SubmitGen / SubmitGenOpts
	kindCls             // classification through Submit
)

// request is one generated input. Its content, and for an open loop its
// due offset, is a pure function of the seed.
type request struct {
	kind   kind
	key    uint64        // routing key (the session for generations)
	prompt []int         // generation prompt or classification ids
	split  int           // GenOpts.SplitAt; 0 sends a whole-prompt request
	budget int           // output tokens (EOS is off)
	at     time.Duration // open loop: due offset from the window start
	closed bool          // sent by a closed-loop client
	client int           // closed loop: the client that sends it
}

// source yields one stream of requests in order.
type source func() request

// shape is the operating point the op replay measures a level at, for
// a full batch (MaxBatch) of sequences: their mean KV length in a decode
// step, and the prompt rows per sequence in a prefill.
type shape struct {
	kvLen, prefillLen int
}

// workload is one named traffic mix against one deployment.
type workload struct {
	name, why string
	nodes     int                 // servers; more than one are fronted by a router
	configure func(*serve.Config) // serve.Config fields the workload names

	// clients > 0 runs a closed loop: each client sends its next
	// request, drawn from closed(seed, client), when the last returns.
	clients int
	closed  func(seed int64, client int) source
	// open returns the open-loop streams, each starting at offset from
	// (the negative warm-up length) and due in non-decreasing order.
	open func(seed int64, from time.Duration) []source

	// switchEvery, when > 0, is the period of level-switch calls during
	// the window; switchLevel(k) is the level the k-th call asks for.
	switchEvery time.Duration
	switchLevel func(k int) int

	// sloTTFT and sloTPOT are the fixed latency limits (ms) of
	// slo_met_frac. A classification meets them when its latency is
	// within sloTTFT.
	sloTTFT, sloTPOT float64

	replay shape
}

const (
	vocab      = 256
	maxBatch   = 8               // serve.Config default MaxBatch
	clsKeyBase = uint64(1) << 24 // classification keys, apart from sessions

	// burstAt is when, after the warm-up classification (warmupCls)
	// opens the warm-up, the single-server workloads send a full batch
	// of generations at once. They queue while the worker runs the
	// classification, so the first prefill admits all of them and the
	// activation buffers reach their full-batch size before the window,
	// not at whichever chance merge of arrivals comes first.
	burstAt = 500 * time.Microsecond
)

var workloads = []*workload{batchDecode, diurnalMixed, sharedPrefix}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// batchDecode keeps 8 sequences (MaxBatch) decoding on one replica
// pinned at l6 while their KV rows grow to ~192: decode steps (attention
// core, decoder kernels, LM head) and the 96-row prefill of each new
// request do the work, queueing, routing, switching and the prefix cache
// none. On a 2-core Xeon the prefills took about half of the worker's
// time, which is why TTFT here is mostly prefill. Prompt and output lengths
// vary by a sixth around 96: with equal lengths, clients admitted
// together would finish together and stay locked in whatever admission
// order the run happened to start with.
var batchDecode = &workload{
	name:    "batch-decode",
	why:     "closed loop, 8 clients, ~96-token prompts and outputs, one replica pinned at l6: exercises decode steps (attention, decoder kernels, LM head) and prefill; no routing, switching or prefix cache",
	nodes:   1,
	clients: maxBatch,
	closed: func(seed int64, client int) source {
		rng := rand.New(rand.NewSource(mix(seed, int64(client)+1)))
		return func() request {
			return request{
				kind: kindGen, key: uint64(client), prompt: tokens(rng, 80+rng.Intn(33)), budget: 80 + rng.Intn(33),
				closed: true, client: client,
			}
		}
	},
	sloTTFT: 100,
	sloTPOT: 10,
	replay:  shape{kvLen: 96 + 96/2, prefillLen: 96},
}

// diurnal shapes. The day repeats every diurnalDay, so a window of a
// whole number of days samples every phase of it equally; rollouts land
// at fixed phases of the day for the same reason. At diurnalRPSScale the
// peak (126 rps) is about 40% of what the fleet absorbed on a 2-core
// Xeon before queues grew without bound (~300 rps), and the 35% of
// generations spread over 256 sessions. Nearer the knee, or with 32
// sessions, whose pins the rollouts' drains herd onto one node, the
// latency tails moved by a third to a half from run to run. Rollouts
// come every 125 ms, so that a run holds ~240 of them.
const (
	diurnalDay      = 2500 * time.Millisecond
	diurnalRPSScale = 0.3
	diurnalSessions = 256
	rolloutEvery    = 125 * time.Millisecond
)

// rolloutCycle is the level sequence the diurnal rollouts walk:
// l6 -> l4 -> l3 -> l4 -> l6 ...
var rolloutCycle = []int{1, 2, 1, 0}

// diurnalMixed is the paper's run-time reconfiguration under changing
// load: mixed classify/generate traffic on the builtin diurnal trace
// through a 2-node router with simulated DVFS, while rollouts switch
// the fleet's level every 125 ms.
var diurnalMixed = &workload{
	name:      "diurnal-mixed",
	why:       "diurnal open loop, 35% classification over 256 sessions, 2-node router, SimDVFS, rollouts every 125 ms: exercises admission, batching, routing and drain/switch; attention barely",
	nodes:     2,
	configure: func(c *serve.Config) { c.SimDVFS = true },
	open: func(seed int64, from time.Duration) []source {
		return []source{diurnalSource(seed, from)}
	},
	switchEvery: rolloutEvery,
	switchLevel: func(k int) int { return rolloutCycle[k%len(rolloutCycle)] },
	sloTTFT:     12,
	sloTPOT:     4,
	replay:      shape{kvLen: 10 + 10/2, prefillLen: 10},
}

// diurnalTrace is the builtin diurnal chaos trace with the benchmark's
// traffic shape: diurnalSessions sessions, prompts and outputs of 4-16
// tokens, and every bucket rate scaled by diurnalRPSScale.
func diurnalTrace() (*chaos.TraceSpec, error) {
	t, err := chaos.LoadBuiltinTrace("diurnal")
	if err != nil {
		return nil, err
	}
	t.Sessions = diurnalSessions
	t.PromptMin, t.PromptMax = 4, 16
	t.OutMin, t.OutMax = 4, 16
	for i := range t.Buckets {
		t.Buckets[i].RPS *= diurnalRPSScale
	}
	return t, nil
}

// diurnalSource replays the diurnal trace as arrivals spaced 1/rate
// apart on a virtual clock, the discipline of the chaos generator, with
// the day stretched to diurnalDay and repeated.
func diurnalSource(seed int64, from time.Duration) source {
	t, err := diurnalTrace()
	if err != nil {
		panic(err) // the trace is compiled in
	}
	scale := float64(diurnalDay) / float64(t.Duration())
	rate := func(at time.Duration) float64 {
		phase := time.Duration(math.Mod(float64(at), float64(diurnalDay)))
		if phase < 0 {
			phase += diurnalDay
		}
		var edge time.Duration
		for _, b := range t.Buckets {
			edge += time.Duration(float64(b.DurationMS) * float64(time.Millisecond) * scale)
			if phase < edge {
				return b.RPS
			}
		}
		return t.Buckets[len(t.Buckets)-1].RPS
	}
	rng := rand.New(rand.NewSource(mix(seed, 101)))
	at := from
	return func() request {
		r := request{at: at}
		if rng.Float64() < t.ClassifyFraction {
			r.kind = kindCls
			r.key = clsKeyBase + uint64(rng.Intn(1<<16))
			r.prompt = tokens(rng, 8+rng.Intn(25))
		} else {
			r.kind = kindGen
			r.key = uint64(rng.Intn(t.Sessions))
			r.prompt = tokens(rng, t.PromptMin+rng.Intn(t.PromptMax-t.PromptMin+1))
			r.budget = t.OutMin + rng.Intn(t.OutMax-t.OutMin+1)
		}
		at += time.Duration(float64(time.Second) / rate(at))
		return r
	}
}

// shared-prefix shapes: the working set is the 8 system prompts'
// prefix rows (8 x 96); the cache holds about half of it, so popular
// prefixes hit while the tail and every unique suffix insert and evict.
// A miss costs a 96-row prefill, several times a hit, so latencies are
// bimodal: the skew keeps misses near a quarter of requests (7 in 10
// prefix rows hit), which puts the p50s inside the hit mode and the p90s
// inside the miss mode rather than on the edge between them (at a skew
// of 1.5 about a third missed, and ttft_ms_p50 moved by 44% between
// runs). At 15 rps, a quarter of the rate at which the queue grew
// without bound on a 2-core Xeon (60 rps, measured at a milder skew of
// 1.5), miss prefills hold the worker about a fifth of the time. At
// 30 rps a slower host stalled nearly half of the decodes and hit
// prefills behind a miss prefill, and tpot_ms_p50 and ttft_ms_p90 moved
// by a third between runs.
const (
	systemPrompts   = 8
	systemPromptLen = 96
	prefixCacheRows = systemPrompts * systemPromptLen / 2
	sharedRate      = 15 // per second
	popularitySkew  = 2.0
	sharedOutput    = 8 // tokens
)

// sharedPrefix sends split requests over 8 system prompts of skewed
// popularity, each with a unique suffix, to one server whose radix
// prefix cache is undersized.
var sharedPrefix = &workload{
	name:      "shared-prefix",
	why:       "open loop of split requests on 8 skewed 96-token system prompts, prefix cache holds half: exercises prefill and radix cache hits, inserts and evictions; no routing or switching",
	nodes:     1,
	configure: func(c *serve.Config) { c.PrefixCacheRows = prefixCacheRows },
	open: func(seed int64, from time.Duration) []source {
		return []source{sharedSource(seed, from)}
	},
	sloTTFT: 50,
	sloTPOT: 10,
	replay:  shape{kvLen: systemPromptLen + 12 + sharedOutput/2, prefillLen: systemPromptLen},
}

// sharedSource draws system prompt i with probability proportional to
// (i+1)^-popularitySkew, appends a unique 8-16 token suffix and asks for
// sharedOutput tokens. The first maxBatch requests are the warm-up burst.
func sharedSource(seed int64, from time.Duration) source {
	rng := rand.New(rand.NewSource(mix(seed, 202)))
	systems := make([][]int, systemPrompts)
	cum := make([]float64, systemPrompts)
	total := 0.0
	for i := range systems {
		systems[i] = tokens(rng, systemPromptLen)
		total += math.Pow(float64(i+1), -popularitySkew)
		cum[i] = total
	}
	at, n := from+burstAt, 0
	return func() request {
		u := rng.Float64() * total
		i := 0
		for cum[i] < u {
			i++
		}
		suffix := tokens(rng, 8+rng.Intn(9))
		r := request{
			kind: kindGen, key: uint64(i),
			prompt: append(append(make([]int, 0, systemPromptLen+len(suffix)), systems[i]...), suffix...),
			split:  systemPromptLen, budget: sharedOutput, at: at,
		}
		if n++; n >= maxBatch {
			at += time.Second / sharedRate
		}
		return r
	}
}

// warmupCls is the classification of 16 tokens that opens every
// warm-up (see burstAt).
func warmupCls(seed int64) request {
	rng := rand.New(rand.NewSource(mix(seed, 303)))
	return request{kind: kindCls, key: clsKeyBase, prompt: tokens(rng, 16)}
}

// tokens draws n token ids from [1, vocab).
func tokens(rng *rand.Rand, n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = 1 + rng.Intn(vocab-1)
	}
	return t
}

// mix derives an independent stream seed from the run seed.
func mix(seed, stream int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x)
}
