package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pipemare/internal/bleu"
	"pipemare/internal/data"
	"pipemare/internal/nn"
	"pipemare/internal/tensor"
)

// checkCachedDecode is the oracle for EvalTest's K/V-cached greedy decode:
// the full recompute the decoder used to run, the whole decoder section
// over all L target positions at every step, reading row i·L+pos. At every
// step of every chunk, DecodeStep's logits must equal that row bit for
// bit, and EvalTest must return the oracle's BLEU with identical bits. It
// returns the number of distinct decoded sequences, so callers can check
// the comparison saw varied tokens.
func checkCachedDecode(t *testing.T, tr *Translation) int {
	t.Helper()
	L := tr.ds.TgtLen
	full := nn.NewMachine(tr.prog.NumRegs)
	full.Tape.SetDType(tr.dt)
	e := tr.evalPairs(1)[0]
	var cands, refs [][]int
	forEvalChunks(tr.ds.TestSrc.Shape[0], 1, 64, func(_, lo, hi int) {
		mem := tr.encode(e.enc, lo, hi)
		b := hi - lo
		dstT, toks := tensor.New(b, L), tensor.New(b, 1)
		dst := tensor.F64(dstT)
		for i := 0; i < b; i++ {
			dst[i*L] = data.BOS
			toks.SetFlat(i, data.BOS)
		}
		pred := make([][]int, b)
		for pos := 0; pos < L; pos++ {
			full.ResetRun()
			full.SetVal(tr.rMem, mem)
			full.SetVal(tr.rDst, dstT)
			tr.prog.ForwardRange(full, tr.encEnd, tr.lossAt)
			want := full.Val(tr.rLogits)

			e.dec.ResetRun()
			e.dec.SetVal(tr.rMem, mem)
			e.dec.SetVal(tr.rDst, toks)
			tr.prog.DecodeStep(e.dec, tr.encEnd, tr.lossAt, tr.rDst, pos)
			got := e.dec.Val(tr.rLogits)

			v := want.Shape[1]
			if got.Shape[0] != b || got.Shape[1] != v || got.DType() != want.DType() {
				t.Fatalf("step %d logits %v %s, want (%d,%d) %s", pos, got.Shape, got.DType(), b, v, want.DType())
			}
			for i := 0; i < b; i++ {
				for j := 0; j < v; j++ {
					w, g := want.FlatAt((i*L+pos)*v+j), got.FlatAt(i*v+j)
					if math.Float64bits(w) != math.Float64bits(g) {
						t.Fatalf("%s chunk at %d, step %d, pair %d, logit %d: cached %v, full recompute %v",
							tr.dt, lo, pos, i, j, g, w)
					}
				}
				tok := want.ArgMaxRow(i*L + pos)
				pred[i] = append(pred[i], tok)
				if pos+1 < L {
					dst[i*L+pos+1] = float64(tok)
				}
				toks.SetFlat(i, float64(tok))
			}
		}
		for i := range b {
			cands = append(cands, trimEOS(pred[i]))
			refs = append(refs, trimEOS(tr.ds.TestLbl[lo+i]))
		}
	})
	oracle := bleu.Corpus(cands, refs)
	if got := tr.EvalTest(); math.Float64bits(got) != math.Float64bits(oracle) {
		t.Fatalf("%s EvalTest BLEU %v, full-recompute oracle %v", tr.dt, got, oracle)
	}
	distinct := map[string]bool{}
	for _, c := range cands {
		distinct[fmt.Sprint(c)] = true
	}
	return len(distinct)
}

// BenchmarkTranslationEval times EvalTest on the shape of the benchmark
// module's transformer workloads (experiments.EngineBenchTask: dim 128,
// 4 heads, 2+2 layers, 32 test pairs): the in-tree twin of its
// model.eval_ms row.
//
//	go test -run NONE -bench TranslationEval ./internal/model/
func BenchmarkTranslationEval(b *testing.B) {
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 13, SrcLen: 6, Train: 256, Test: 32, Seed: 2})
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		b.Run(dt.String(), func(b *testing.B) {
			tr := NewTranslation(ds, TransformerConfig{Dim: 128, Heads: 4, EncLayers: 2, DecLayers: 2, Seed: 1})
			tr.SetDType(dt)
			tr.EvalTest() // size the arenas and caches
			for b.Loop() {
				tr.EvalTest()
			}
		})
	}
}

// TestCachedDecodeMatchesFullRecompute runs the oracle on a second shape
// (one decoder layer, two heads) in both dtypes, with weights perturbed
// far from their initialization so the greedy tokens vary. The 100-pair
// test set decodes as one full 64-pair chunk and one ragged chunk.
func TestCachedDecodeMatchesFullRecompute(t *testing.T) {
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5, Train: 8, Test: 100, Seed: 2})
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		tr := NewTranslation(ds, TransformerConfig{Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 3})
		rng := rand.New(rand.NewSource(7))
		for _, g := range tr.Groups() {
			for _, p := range g.Params {
				for j := 0; j < p.Size(); j++ {
					p.Data.SetFlat(j, p.Data.FlatAt(j)+rng.NormFloat64())
				}
			}
		}
		tr.SetDType(dt)
		if n := checkCachedDecode(t, tr); n < 10 {
			t.Fatalf("%s: only %d distinct decoded sequences; the oracle needs varied tokens", dt, n)
		}
	}
}
