package serve

import (
	"testing"
	"time"
)

// SetInitialExploration makes the RL learners built during the test
// start exploring at eps (it still decays from there); switch-happy live
// tests use 0.9. ReplayTrace within the test sees the same rate.
func SetInitialExploration(t testing.TB, eps float64) {
	old := rlEpsilon
	rlEpsilon = eps
	t.Cleanup(func() { rlEpsilon = old })
}

// SetTraceCap shrinks a controller's decision-trace cap.
func SetTraceCap(c *Controller, n int) { c.traceCap = n }

// SetControlTick changes the server's control tick period; call it
// before Start.
func SetControlTick(s *Server, d time.Duration) { s.ctrl.every = d }
