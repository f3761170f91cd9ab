package core

import (
	"fmt"

	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

// recipe is every value a follower's arithmetic reads, as its leader
// resolved them: the method, the stage map, batch and microbatch size, T1's
// K, T2's D, T3's warmup epochs, the recompute segments, the loss cap,
// Appendix E's rule with its seed (read only with it), the dtype and fault
// tolerance. The hello carries it, and NewFollower builds from it alone.
type recipe struct {
	cfg     Config
	stageOf []int
	dtype   tensor.DType
}

// encode is the recipe's one encoding: decodeRecipe accepts nothing else.
func (r recipe) encode() []byte {
	c := r.cfg
	b := transport.AppendU32(nil, uint32(c.Method))
	for _, v := range []int{c.BatchSize, c.MicrobatchSize, c.T1K, c.WarmupEpochs, c.RecomputeSegments, int(r.dtype), len(r.stageOf)} {
		b = transport.AppendU32(b, uint32(v))
	}
	for _, s := range r.stageOf {
		b = transport.AppendU32(b, uint32(s))
	}
	b = transport.AppendF64(transport.AppendF64(b, c.T2D), c.LossCap)
	b = transport.AppendBool(b, c.Hogwild != nil)
	if h := c.Hogwild; h != nil {
		b = transport.AppendU64(transport.AppendF64(transport.AppendU32(b, uint32(h.TauMax)), h.MeanScale), uint64(c.Seed))
	}
	return transport.AppendBool(b, c.FaultTolerant)
}

// decodeRecipe decodes a recipe, refusing only malformed bytes and an
// unknown dtype (not a Config field): the values NewFollower builds from
// meet Config.check in newTrainer, as a leader's do.
func decodeRecipe(data []byte) (recipe, error) {
	cur := transport.NewCursor(data)
	var r recipe
	c := &r.cfg
	c.Method = Method(cur.I32())
	c.BatchSize, c.MicrobatchSize, c.T1K, c.WarmupEpochs, c.RecomputeSegments = cur.I32(), cur.I32(), cur.I32(), cur.I32(), cur.I32()
	dtype := cur.I32()
	r.stageOf = make([]int, cur.Count(4))
	for i := range r.stageOf {
		r.stageOf[i] = cur.I32()
	}
	c.T2D, c.LossCap = cur.F64(), cur.F64()
	if cur.Bool() {
		c.Hogwild = &pipeline.Hogwild{TauMax: cur.I32(), MeanScale: cur.F64()}
		c.Seed = int64(cur.U64())
	}
	c.FaultTolerant = cur.Bool()
	err := cur.Done()
	if err == nil && (dtype < int(tensor.Float64) || dtype > int(tensor.Float32)) {
		err = fmt.Errorf("unknown dtype %d", dtype)
	}
	if err != nil {
		return recipe{}, fmt.Errorf("core: bad recipe: %w", err)
	}
	r.dtype = tensor.DType(dtype)
	return r, nil
}
