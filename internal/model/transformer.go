package model

import (
	"fmt"
	"math/rand"

	"pipemare/internal/bleu"
	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/nn"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
)

// Translation is a core.Task: an encoder–decoder Transformer trained with
// teacher forcing on the synthetic translation dataset and evaluated with
// greedy decoding + corpus BLEU. The network is compiled to an op program
// whose ops align with the fine-grained weight groups (every projection is
// its own group), so a pipeline stage boundary may fall anywhere — even
// between the query and key projections of one attention block — and the
// boundary activations (including the encoder memory feeding every decoder
// cross-attention) travel through the machine's register file.
type Translation struct {
	ds  *data.Translation
	cfg TransformerConfig // kept for CloneTask
	ce  *nn.CrossEntropy

	groups []pipeline.ParamGroup
	prog   *nn.Program

	rSrc, rDst, rMem, rLogits nn.Reg
	encEnd                    int // op index where the decoder section starts
	lossAt                    int // op index of the loss op

	encM, decM *nn.Machine

	d  int
	dt tensor.DType
}

// TransformerConfig sizes the Translation model.
type TransformerConfig struct {
	Dim       int // model width (divisible by Heads)
	Heads     int
	EncLayers int
	DecLayers int
	FFMult    int // feed-forward width multiplier (default 2)
	Seed      int64
}

// NewTranslation builds the Transformer translation task over ds.
func NewTranslation(ds *data.Translation, cfg TransformerConfig) *Translation {
	if cfg.FFMult == 0 {
		cfg.FFMult = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Translation{ds: ds, cfg: cfg, d: cfg.Dim, ce: nn.NewCrossEntropy()}
	b := &progBuilder{}
	ff := cfg.Dim * cfg.FFMult

	t.rSrc = b.reg()
	t.rDst = b.reg()

	// Encoder: embedding, positions, then pre-LN blocks.
	srcEmb := nn.NewEmbedding("src.emb", ds.Vocab, cfg.Dim, rng)
	srcPos := nn.NewPositionalEncoding("src.pos", ds.SrcLen, cfg.Dim, rng)
	x := b.apply(b.group("src.emb", srcEmb.Params()), srcEmb, t.rSrc)
	x = b.apply(b.group("src.pos", srcPos.Params()), srcPos, x)
	for i := 0; i < cfg.EncLayers; i++ {
		x = t.buildSelfBlock(b, rng, fmt.Sprintf("enc%d", i), x, cfg, ds.SrcLen, false)
		x = t.buildFFBlock(b, rng, fmt.Sprintf("enc%d", i), x, cfg.Dim, ff)
	}
	t.rMem = x
	t.encEnd = len(b.ops)

	// Decoder: embedding, positions, causal self-attention, cross-attention
	// over the encoder memory, feed-forward.
	tgtEmb := nn.NewEmbedding("tgt.emb", ds.Vocab, cfg.Dim, rng)
	tgtPos := nn.NewPositionalEncoding("tgt.pos", ds.TgtLen, cfg.Dim, rng)
	y := b.apply(b.group("tgt.emb", tgtEmb.Params()), tgtEmb, t.rDst)
	y = b.apply(b.group("tgt.pos", tgtPos.Params()), tgtPos, y)
	for i := 0; i < cfg.DecLayers; i++ {
		name := fmt.Sprintf("dec%d", i)
		y = t.buildSelfBlockNamed(b, rng, name+".ln1", name+".self", y, cfg, ds.TgtLen, true)
		// Cross-attention sub-block: queries from the decoder stream, keys
		// and values from the encoder memory register.
		ln2 := nn.NewLayerNorm(name+".ln2", cfg.Dim)
		cross := nn.NewMultiHeadAttention(name+".cross", cfg.Dim, cfg.Heads, ds.TgtLen, ds.SrcLen, false, rng)
		h := b.apply(b.group(name+".ln2", ln2.Params()), ln2, y)
		cq := b.apply(b.group(name+".cross.q", cross.Wq.Params()), cross.Wq, h)
		ck := b.apply(b.group(name+".cross.k", cross.Wk.Params()), cross.Wk, t.rMem)
		cv := b.apply(b.group(name+".cross.v", cross.Wv.Params()), cross.Wv, t.rMem)
		gO := b.group(name+".cross.o", cross.Wo.Params())
		ca := b.attnCore(gO, cross.Core, cq, ck, cv)
		co := b.apply(gO, cross.Wo, ca)
		y = b.add(gO, y, co)
		y = t.buildFFBlockNamed(b, rng, name+".ln3", name, y, cfg.Dim, ff)
	}
	lnf := nn.NewLayerNorm("out.ln", cfg.Dim)
	out := nn.NewLinear("out.proj", cfg.Dim, ds.Vocab, true, rng)
	y = b.apply(b.group("out.ln", lnf.Params()), lnf, y)
	gOut := b.group("out.proj", out.Params())
	t.rLogits = b.apply(gOut, out, y)
	b.loss(gOut, t.ce, t.rLogits)

	t.groups = b.groups
	t.prog = b.build()
	t.lossAt = len(t.prog.Ops) - 1
	t.encM = nn.NewMachine(t.prog.NumRegs)
	t.decM = nn.NewMachine(t.prog.NumRegs)
	return t
}

// buildSelfBlock appends a pre-LN self-attention sub-block x + O(core(Q,K,V))
// using the encoder group names <name>.ln1 / <name>.{q,k,v,o}.
func (t *Translation) buildSelfBlock(b *progBuilder, rng *rand.Rand, name string, x nn.Reg, cfg TransformerConfig, seqLen int, causal bool) nn.Reg {
	return t.selfBlock(b, rng, name+".ln1", name+".attn", name, x, cfg, seqLen, causal)
}

// buildSelfBlockNamed is buildSelfBlock with decoder-style group names
// <lnName> / <attnName>.{q,k,v,o}.
func (t *Translation) buildSelfBlockNamed(b *progBuilder, rng *rand.Rand, lnName, attnName string, x nn.Reg, cfg TransformerConfig, seqLen int, causal bool) nn.Reg {
	return t.selfBlock(b, rng, lnName, attnName, attnName, x, cfg, seqLen, causal)
}

func (t *Translation) selfBlock(b *progBuilder, rng *rand.Rand, lnName, attnName, groupPrefix string, x nn.Reg, cfg TransformerConfig, seqLen int, causal bool) nn.Reg {
	ln := nn.NewLayerNorm(lnName, cfg.Dim)
	attn := nn.NewMultiHeadAttention(attnName, cfg.Dim, cfg.Heads, seqLen, seqLen, causal, rng)
	h := b.apply(b.group(lnName, ln.Params()), ln, x)
	q := b.apply(b.group(groupPrefix+".q", attn.Wq.Params()), attn.Wq, h)
	k := b.apply(b.group(groupPrefix+".k", attn.Wk.Params()), attn.Wk, h)
	v := b.apply(b.group(groupPrefix+".v", attn.Wv.Params()), attn.Wv, h)
	gO := b.group(groupPrefix+".o", attn.Wo.Params())
	a := b.attnCore(gO, attn.Core, q, k, v)
	o := b.apply(gO, attn.Wo, a)
	return b.add(gO, x, o)
}

// buildFFBlock appends a pre-LN feed-forward sub-block
// x + FF2(GELU(FF1(LN(x)))) with group names <name>.{ln2,ff1,ff2}.
func (t *Translation) buildFFBlock(b *progBuilder, rng *rand.Rand, name string, x nn.Reg, d, ff int) nn.Reg {
	return t.buildFFBlockNamed(b, rng, name+".ln2", name, x, d, ff)
}

func (t *Translation) buildFFBlockNamed(b *progBuilder, rng *rand.Rand, lnName, name string, x nn.Reg, d, ff int) nn.Reg {
	ln := nn.NewLayerNorm(lnName, d)
	ff1 := nn.NewLinear(name+".ff1", d, ff, true, rng)
	ff2 := nn.NewLinear(name+".ff2", ff, d, true, rng)
	h := b.apply(b.group(lnName, ln.Params()), ln, x)
	gFF1 := b.group(name+".ff1", ff1.Params())
	h = b.apply(gFF1, ff1, h)
	h = b.apply(gFF1, nn.NewGELU(), h)
	gFF2 := b.group(name+".ff2", ff2.Params())
	f := b.apply(gFF2, ff2, h)
	return b.add(gFF2, x, f)
}

// Groups returns the weight groups in forward order.
func (t *Translation) Groups() []pipeline.ParamGroup { return t.groups }

// CloneTask rebuilds an architecturally identical task over the same
// dataset (core.Replicable, for WithReplicas data parallelism). The
// clone re-applies the dtype so every replica rounds the same float64
// initialization identically.
func (t *Translation) CloneTask() core.Task {
	nt := NewTranslation(t.ds, t.cfg)
	if t.dt != tensor.Float64 {
		nt.SetDType(t.dt)
	}
	return nt
}

// SetDType casts the model to dt. Parameters become the rounded image of
// their float64 initialization (the rng draw sequence is unchanged), and
// all tape-allocated activations follow. Call before training starts —
// the optimizer sizes its moments off the parameter dtype.
func (t *Translation) SetDType(dt tensor.DType) {
	t.dt = dt
	setProgDType(dt, t.groups, t.prog, t.encM, t.decM)
}

// Program returns the compiled op program (core.Task).
func (t *Translation) Program() *nn.Program { return t.prog }

// BindMicro loads the indexed training pairs into a machine
// (core.Task). The machine must have been reset.
func (t *Translation) BindMicro(m *nn.Machine, idx []int) {
	m.SetVal(t.rSrc, gatherRowsTape(&m.Tape, t.ds.TrainSrc, idx))
	m.SetVal(t.rDst, gatherRowsTape(&m.Tape, t.ds.TrainDst, idx))
	m.Labels = m.Labels[:0]
	for _, ix := range idx {
		m.Labels = append(m.Labels, t.ds.TrainLbl[ix]...)
	}
}

// NumTrain returns the training-set size.
func (t *Translation) NumTrain() int { return t.ds.TrainSrc.Shape[0] }

// EvalTest greedy-decodes the test set and returns corpus BLEU against the
// reference translations (content tokens up to EOS). Per chunk of test
// pairs, the encoder section of the program runs once on one machine;
// then each greedy step runs the decoder section on a second machine for
// one new row per pair (nn.Program.DecodeStep): its input is the previous
// step's tokens, and the cross-attention keys and values of the encoder
// memory and the self-attention keys and values of earlier positions come
// from that machine's K/V cache. The logits are bit-identical to
// re-running the decoder over every position at every step.
func (t *Translation) EvalTest() float64 {
	var cands, refs [][]int
	t.evalChunks(func(idx []int, mem *tensor.Tensor) {
		b := len(idx)
		toks := tensor.New(b, 1) // dataset-style float64 token ids
		ids := tensor.F64(toks)
		for i := range ids {
			ids[i] = data.BOS
		}
		pred := make([][]int, b)
		for pos := 0; pos < t.ds.TgtLen; pos++ {
			t.decM.ResetRun()
			t.decM.SetVal(t.rMem, mem)
			t.decM.SetVal(t.rDst, toks)
			t.prog.DecodeStep(t.decM, t.encEnd, t.lossAt, t.rDst, pos)
			logits := t.decM.Val(t.rLogits)
			for i := range ids {
				tok := logits.ArgMaxRow(i)
				pred[i] = append(pred[i], tok)
				ids[i] = float64(tok)
			}
		}
		for i, ix := range idx {
			cands = append(cands, trimEOS(pred[i]))
			refs = append(refs, trimEOS(t.ds.TestLbl[ix]))
		}
	})
	return bleu.Corpus(cands, refs)
}

// evalChunks runs the encoder section over the test set in chunks of up
// to 64 pairs, calling fn with each chunk's indices and encoder memory
// (valid until the next chunk).
func (t *Translation) evalChunks(fn func(idx []int, mem *tensor.Tensor)) {
	n := t.ds.TestSrc.Shape[0]
	const chunk = 64
	for s := 0; s < n; s += chunk {
		idx := make([]int, min(chunk, n-s))
		for i := range idx {
			idx[i] = s + i
		}
		t.encM.ResetRun()
		t.encM.SetVal(t.rSrc, gatherRowsTape(&t.encM.Tape, t.ds.TestSrc, idx))
		t.prog.ForwardRange(t.encM, 0, t.encEnd)
		fn(idx, t.encM.Val(t.rMem))
	}
}

// trimEOS cuts a token sequence at the first EOS (exclusive).
func trimEOS(toks []int) []int {
	for i, tk := range toks {
		if tk == data.EOS {
			return toks[:i]
		}
	}
	return toks
}
