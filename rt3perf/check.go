package main

import (
	"fmt"
	"slices"

	"rt3/internal/mat"
)

// genSamplePerLevel caps the generations checked per level.
const genSamplePerLevel = 6

// verify checks the window's sampled responses (see sampleEvery) against
// masked dense execution at the level each was served at: generations
// token for token against DenseGenReference (whole prompts) or
// DenseGenReferenceSplit (split prompts), classifications against
// DenseReference. Every level that served a request of a kind is
// covered. It runs on the idle deployment, outside the timing, and
// marks every mismatching record.
func verify(d *deployment, rn *run, o *outcome) error {
	srv := d.servers[0]      // every node holds the same weights and sets
	checked := map[int]int{} // generations checked per level
	for _, r := range rn.windowRecords() {
		if !r.sampled {
			continue
		}
		if r.kind == kindCls {
			ref, err := srv.DenseReference(r.cls.Level, r.prompt)
			if err != nil {
				return fmt.Errorf("dense reference: %w", err)
			}
			o.verified++
			if !mat.Equal(r.cls.Out, ref, 1e-9) {
				r.mismatch = true
				o.mismatches++
			}
			continue
		}
		if checked[r.gen.Level] >= genSamplePerLevel {
			continue
		}
		checked[r.gen.Level]++
		var ref []int
		var err error
		if r.split > 0 {
			ref, err = srv.DenseGenReferenceSplit(r.gen.Level, r.prompt[:r.split], r.prompt[r.split:], r.budget, -1)
		} else {
			ref, err = srv.DenseGenReference(r.gen.Level, r.prompt, r.budget, -1)
		}
		if err != nil {
			return fmt.Errorf("dense reference: %w", err)
		}
		o.verified++
		if !slices.Equal(r.gen.Tokens, ref) {
			r.mismatch = true
			o.mismatches++
		}
	}
	return nil
}
