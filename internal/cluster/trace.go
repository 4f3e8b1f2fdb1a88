package cluster

import (
	"fmt"
	"math/rand"
)

// Decision kinds recorded in the router trace. Affinity hits are not
// decisions — a pinned session bypasses the policy entirely — so the
// trace holds exactly the Pick calls.
const (
	// DecisionRoute is a first-time placement: the session had no live
	// pin and the policy chose a node.
	DecisionRoute = "route"
	// DecisionRepin is a forced move: the session's pinned node left
	// rotation (drain, stop, crash) or refused the request, and the
	// policy chose a replacement — an affinity miss.
	DecisionRepin = "repin"
	// DecisionFailover is a crash recovery: the policy chose the node a
	// partially generated stream resumes on via truncate-replay.
	DecisionFailover = "failover"
	// DecisionRetry is a backoff re-dispatch: an earlier admission
	// attempt failed retryably (queue full everywhere, or no ready node)
	// and the policy re-picked after an exponential-backoff wait.
	DecisionRetry = "retry"
)

// Decision is one recorded policy pick with the exact inputs it saw.
type Decision struct {
	Seq   int       `json:"seq"`
	Kind  string    `json:"kind"`
	Key   uint64    `json:"key"`
	Ready []int     `json:"ready"`
	Loads []float64 `json:"loads"`
	// Node is the pick the policy returned.
	Node int `json:"node"`
}

// BreakerEvent is one circuit-breaker state transition, recorded in
// dispatch order alongside the decisions. Breaker state never enters
// Replay directly — its routing effect is fully captured by the ready
// sets the decisions record (an open breaker removes its node from
// them) — but the event log makes a chaos run's breaker behavior
// auditable and replay-comparable.
type BreakerEvent struct {
	Seq  int    `json:"seq"`
	Node int    `json:"node"`
	From string `json:"from"`
	To   string `json:"to"`
}

// Trace is the router's auditable decision log: the most recent policy
// picks (up to the router's cap) in dispatch order, with the policy name
// and rng seed that produced them, plus the circuit-breaker transitions
// observed along the way. Like the server's level-control decision
// trace, a complete one replays deterministically — Replay re-runs the
// recorded inputs through a fresh policy and rng and requires identical
// picks.
type Trace struct {
	Policy    string         `json:"policy"`
	Seed      int64          `json:"seed"`
	Decisions []Decision     `json:"decisions"`
	Breaker   []BreakerEvent `json:"breaker,omitempty"`
	// Dropped counts the oldest decisions evicted by the trace cap; a
	// trace with Dropped > 0 is not replayable (the rng history is
	// incomplete).
	Dropped int `json:"dropped,omitempty"`
}

// Replay re-executes the trace from its seed: a fresh policy instance
// and a fresh rng walk the recorded decisions in order, and every
// re-picked node must match the recorded one. Returns the number of
// replayed decisions, or an error naming the first divergence — which,
// given deterministic policies, can only mean the trace was edited or
// the policy implementation changed.
func Replay(tr Trace) (int, error) {
	if tr.Dropped > 0 {
		return 0, fmt.Errorf("cluster: trace dropped %d decisions (trace cap exceeded); not replayable", tr.Dropped)
	}
	pol, err := NewPolicy(tr.Policy)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(tr.Seed))
	for i, d := range tr.Decisions {
		if len(d.Ready) == 0 {
			return i, fmt.Errorf("cluster: decision %d has an empty ready set", d.Seq)
		}
		if got := pol.Pick(d.Key, d.Ready, d.Loads, rng); got != d.Node {
			return i, fmt.Errorf("cluster: replay diverged at decision %d (%s key=%d): picked node %d, trace says %d",
				d.Seq, d.Kind, d.Key, got, d.Node)
		}
	}
	return len(tr.Decisions), nil
}
