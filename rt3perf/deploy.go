package main

import (
	"fmt"
	"math/rand"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/deploy"
	"rt3/internal/pattern"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// modelCfg is the benchmark LM: small enough that one replica per core
// of a 2-core host serves every workload, large enough that the decoder
// kernels, the attention core and the LM head each take a visible share
// of a decode step.
var modelCfg = transformer.Config{
	Vocab: 256, Dim: 64, Heads: 4, FFHidden: 256, EncLayers: 2, DecLayers: 2, SeqLen: 256,
}

// levelNames and levelSparsity are the deployed V/F levels, fastest
// first, built the way cmd/rt3serve builds them.
var (
	levelNames    = []string{"l6", "l4", "l3"}
	levelSparsity = []float64{0.3, 0.5, 0.7}
)

// deployment is one set-up system under test. Every node holds one
// engine with one replica; a fleet of more than one node is fronted by
// a cluster router.
type deployment struct {
	servers  []*serve.Server
	engines  []*serve.Engine
	replicas []*transformer.LMModel // replicas[i] serves engines[i]
	router   *cluster.Router

	setupS, decodeMS, buildMS float64
}

// setUp builds the deployment for a workload from the seed: the LM,
// one pattern set per level, the bundle round trip through Encode and
// deploy.Decode, one engine and server per node, and the router. It
// returns once the first warm-up generation has come back; setupS is
// the wall time from the first step to that response. decodeMS and
// buildMS total deploy.Decode and engine construction over all nodes.
func setUp(w *workload, seed int64) (*deployment, error) {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	lm := transformer.NewLMModel(modelCfg, rng)
	ref := lm.PrunableLinears()[0].W.Value
	sets := make([]*pattern.Set, len(levelSparsity))
	for i, sp := range levelSparsity {
		sets[i] = pattern.GenerateSet(ref, 4, sp, 3, rng)
	}
	data, err := serve.BundleFromModel(lm, sets, levelNames).Encode()
	if err != nil {
		return nil, fmt.Errorf("encode bundle: %w", err)
	}
	d := &deployment{}
	var nodes []*cluster.Node
	for i := 0; i < w.nodes; i++ {
		t := time.Now()
		b, err := deploy.Decode(data)
		d.decodeMS += msSince(t)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("decode bundle: %w", err)
		}
		rep := lm.Clone()
		t = time.Now()
		eng, err := serve.NewEngineConfigured(b, []serve.Model{rep}, rtswitch.DefaultSwitchCostModel(), serve.EngineConfig{})
		d.buildMS += msSince(t)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("build engine: %w", err)
		}
		cfg := serve.Config{Generate: true}
		if w.configure != nil {
			w.configure(&cfg)
		}
		srv := serve.New(eng, cfg)
		d.servers = append(d.servers, srv)
		d.engines = append(d.engines, eng)
		d.replicas = append(d.replicas, rep)
		nodes = append(nodes, cluster.NewNode(i, srv))
	}
	if w.nodes > 1 {
		d.router = cluster.New(nodes, cluster.Config{Seed: seed})
		d.router.Start()
	} else {
		d.servers[0].Start()
	}
	ch, err := d.submitGen(0, []int{1, 2, 3, 4, 5, 6, 7, 8}, 0, 4)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	if resp := <-ch; resp.Err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up request: %w", resp.Err)
	}
	d.setupS = time.Since(t0).Seconds()
	return d, nil
}

// submitGen sends one greedy generation with EOS off. split > 0 sends
// a split request (single-server deployments only).
func (d *deployment) submitGen(key uint64, prompt []int, split, budget int) (<-chan serve.GenResponse, error) {
	if d.router != nil {
		return d.router.SubmitGen(key, prompt, budget, -1)
	}
	return d.servers[0].SubmitGenOpts(prompt, serve.GenOpts{SplitAt: split, MaxTokens: budget, EOS: -1})
}

// submitCls sends one classification.
func (d *deployment) submitCls(key uint64, ids []int) (<-chan serve.Response, error) {
	if d.router != nil {
		return d.router.Submit(key, ids)
	}
	return d.servers[0].Submit(ids)
}

// switchTo moves the deployment to a level: a zero-downtime rollout
// across the fleet, or a drained switch on a single server.
func (d *deployment) switchTo(level int) error {
	if d.router != nil {
		return d.router.RolloutSwitch(level)
	}
	_, err := d.servers[0].SwitchTo(level)
	return err
}

// stop stops admission and waits for every worker and forwarding
// goroutine to finish.
func (d *deployment) stop() {
	if d.router != nil {
		d.router.Stop()
		return
	}
	for _, s := range d.servers {
		s.Stop()
	}
}

// close stops the deployment and releases its engines.
func (d *deployment) close() {
	d.stop()
	for _, e := range d.engines {
		e.Close()
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
