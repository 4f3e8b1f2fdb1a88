package main

import (
	"math/rand"
	"time"

	"rt3/internal/mat"
	"rt3/internal/metrics"
	"rt3/internal/transformer"
)

// replayReps is the number of timed repetitions per op, and
// prefillReps per prefill pass, which costs a hundred decode steps; the
// median is reported.
const (
	replayReps  = 60
	prefillReps = 7
)

// opReplay times the decode path's layers through their public
// functions on node 0's stopped engine and replica, at the workload's
// shape, at every level:
//
//   - kernel.dec_mulinto_us.<lv>: Kernel().MulInto summed over the
//     decoder's prunable Linears, and kernel.dec_mulinto_bytes.<lv> the
//     bytes those calls move, computed from the tensor sizes (8 bytes
//     per value, 4 per index word);
//   - transformer.decode_step_us.<lv>: one Engine.DecodeBatch;
//   - transformer.attn_residual_us.<lv>: the decode step minus the
//     decoder kernels and the LM head — the attention core, LayerNorm,
//     embedding and bias adds.
//
// At the first level it also times the unpacked LM head
// (nn.lm_head_us, LMModel.Proj.Forward) and Engine.PrefillBatch per
// prompt row (transformer.prefill_us_per_row).
func opReplay(d *deployment, sh shape, seed int64) (map[string]float64, error) {
	eng, lm := d.engines[0], d.replicas[0]
	rng := rand.New(rand.NewSource(mix(seed, 404)))
	out := map[string]float64{}
	// the engine's own level is always installable
	defer func() { _ = eng.InstallReplicaLevel(0, eng.Level()) }()

	prompts := make([][]int, maxBatch)
	for i := range prompts {
		prompts[i] = tokens(rng, sh.kvLen)
	}
	step := make([]int, maxBatch)
	for i := range step {
		step[i] = 1 + rng.Intn(vocab-1)
	}
	states := make([]*transformer.DecodeState, maxBatch)
	for i := range states {
		st, err := eng.NewDecodeState(0)
		if err != nil {
			return nil, err
		}
		st.Reserve(sh.kvLen + 1)
		states[i] = st
	}
	head := randMatrix(rng, maxBatch, modelCfg.Dim)

	for lv, name := range levelNames {
		if err := eng.InstallReplicaLevel(0, lv); err != nil {
			return nil, err
		}
		if _, err := eng.PrefillBatch(0, states, prompts); err != nil {
			return nil, err
		}
		var err error
		stepUS := timeOp(replayReps, func() {
			if _, e := eng.DecodeBatch(0, states, step); e != nil {
				err = e
			}
			for _, st := range states {
				st.TruncateTo(sh.kvLen)
			}
		})
		if err != nil {
			return nil, err
		}
		kernUS, bytes := 0.0, 0.0
		for _, dec := range lm.Dec {
			for _, l := range dec.PrunableLinears() {
				k := l.Kernel()
				in, o := k.Dims()
				x, dst := randMatrix(rng, maxBatch, in), mat.New(maxBatch, o)
				kernUS += timeOp(replayReps, func() { k.MulInto(dst, x) })
				bytes += 8*float64(maxBatch*(in+o)+k.NNZ()) + 4*float64(k.IndexWords())
			}
		}
		headUS := timeOp(replayReps, func() { lm.Proj.Forward(head) })
		out["kernel.dec_mulinto_us."+name] = kernUS
		out["kernel.dec_mulinto_bytes."+name] = bytes
		out["transformer.decode_step_us."+name] = stepUS
		out["transformer.attn_residual_us."+name] = stepUS - kernUS - headUS
		if lv == 0 {
			out["nn.lm_head_us"] = headUS
			pre := make([][]int, maxBatch)
			for i := range pre {
				pre[i] = prompts[i][:sh.prefillLen]
			}
			us := timeOp(prefillReps, func() {
				if _, e := eng.PrefillBatch(0, states, pre); e != nil {
					err = e
				}
			})
			if err != nil {
				return nil, err
			}
			out["transformer.prefill_us_per_row"] = us / float64(maxBatch*sh.prefillLen)
		}
	}
	return out, nil
}

// timeOp runs f once untimed, then reps times, and returns the median
// wall time of one call in microseconds.
func timeOp(reps int, f func()) float64 {
	f()
	us := make([]float64, reps)
	for i := range us {
		t := time.Now()
		f()
		us[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return metrics.Quantile(us, 0.5)
}

func randMatrix(rng *rand.Rand, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}
