// Package data generates the synthetic datasets that stand in for the
// paper's CIFAR10/ImageNet, IWSLT14/WMT17 and cpusmall workloads (see
// DESIGN.md §1 for the substitution rationale). All generators are
// deterministic given their seed.
package data

import (
	"math"
	"math/rand"

	"pipemare/internal/tensor"
)

// Images is a synthetic image-classification dataset: each class has a
// fixed random template and samples are template + Gaussian noise, which
// gives a task that is learnable but not trivially separable at high noise.
type Images struct {
	Classes   int
	C, H, W   int
	TrainX    *tensor.Tensor // (Ntrain, C, H, W)
	TrainY    []int
	TestX     *tensor.Tensor
	TestY     []int
	templates *tensor.Tensor
}

// ImagesConfig configures the synthetic image generator.
type ImagesConfig struct {
	Classes int
	C, H, W int
	Train   int
	Test    int
	Noise   float64 // per-pixel noise std relative to unit templates
	// LabelFlip is the fraction of labels (train and test) replaced by a
	// uniformly random class, capping attainable accuracy near
	// 100·(1−LabelFlip·(Classes−1)/Classes) percent.
	LabelFlip float64
	Seed      int64
}

// NewImages generates a dataset.
func NewImages(cfg ImagesConfig) *Images {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Images{Classes: cfg.Classes, C: cfg.C, H: cfg.H, W: cfg.W}
	px := cfg.C * cfg.H * cfg.W
	d.templates = tensor.New(cfg.Classes, px)
	tmpl := tensor.F64(d.templates)
	for i := range tmpl {
		tmpl[i] = rng.NormFloat64()
	}
	gen := func(n int) (*tensor.Tensor, []int) {
		xt := tensor.New(n, cfg.C, cfg.H, cfg.W)
		x := tensor.F64(xt)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			c := rng.Intn(cfg.Classes)
			y[i] = c
			for j := 0; j < px; j++ {
				x[i*px+j] = tmpl[c*px+j] + float64(cfg.Noise*rng.NormFloat64())
			}
			if cfg.LabelFlip > 0 && rng.Float64() < cfg.LabelFlip {
				y[i] = rng.Intn(cfg.Classes)
			}
		}
		return xt, y
	}
	d.TrainX, d.TrainY = gen(cfg.Train)
	d.TestX, d.TestY = gen(cfg.Test)
	return d
}

// FlatTrain returns the training images flattened to (N, C*H*W) feature
// vectors (shared data, no copy), for MLP models.
func (d *Images) FlatTrain() *tensor.Tensor {
	n := d.TrainX.Shape[0]
	return d.TrainX.Reshape(n, d.C*d.H*d.W)
}

// FlatTest returns the test images flattened to (N, C*H*W).
func (d *Images) FlatTest() *tensor.Tensor {
	n := d.TestX.Shape[0]
	return d.TestX.Reshape(n, d.C*d.H*d.W)
}

// Translation is a synthetic sequence-to-sequence task standing in for
// IWSLT14/WMT17: the target is the reversed source with a per-sentence
// cyclic token shift keyed by the first source token. A model must learn
// both the reversal (alignment) and the content-dependent substitution, so
// copying fails and attention is genuinely needed.
type Translation struct {
	Vocab  int // token ids 0..Vocab-1; 0=PAD, 1=BOS, 2=EOS, content ≥ 3
	SrcLen int // fixed source length
	TgtLen int // fixed target length = SrcLen + 1 (content + EOS)

	TrainSrc *tensor.Tensor // (Ntrain, SrcLen) token ids
	TrainDst *tensor.Tensor // (Ntrain, TgtLen) decoder input: BOS + content
	TrainLbl [][]int        // per-sample labels: content + EOS
	TestSrc  *tensor.Tensor
	TestDst  *tensor.Tensor
	TestLbl  [][]int
}

// Specials.
const (
	PAD = 0
	BOS = 1
	EOS = 2
)

// TranslationConfig configures the synthetic translation generator.
type TranslationConfig struct {
	Vocab  int
	SrcLen int
	Train  int
	Test   int
	Seed   int64
}

// NewTranslation generates a dataset.
func NewTranslation(cfg TranslationConfig) *Translation {
	if cfg.Vocab < 6 {
		panic("data: translation vocab must be at least 6")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Translation{Vocab: cfg.Vocab, SrcLen: cfg.SrcLen, TgtLen: cfg.SrcLen + 1}
	gen := func(n int) (*tensor.Tensor, *tensor.Tensor, [][]int) {
		srcT, dstT := tensor.New(n, cfg.SrcLen), tensor.New(n, d.TgtLen)
		src, dst := tensor.F64(srcT), tensor.F64(dstT)
		lbl := make([][]int, n)
		content := cfg.Vocab - 3
		for i := 0; i < n; i++ {
			toks := make([]int, cfg.SrcLen)
			for j := range toks {
				toks[j] = 3 + rng.Intn(content)
				src[i*cfg.SrcLen+j] = float64(toks[j])
			}
			shift := toks[0] - 3
			out := make([]int, cfg.SrcLen)
			for j := range out {
				s := toks[cfg.SrcLen-1-j]
				out[j] = 3 + ((s-3)+shift)%content
			}
			dst[i*d.TgtLen] = BOS
			lbl[i] = make([]int, d.TgtLen)
			for j := 0; j < cfg.SrcLen; j++ {
				dst[i*d.TgtLen+j+1] = float64(out[j])
				lbl[i][j] = out[j]
			}
			lbl[i][cfg.SrcLen] = EOS
		}
		return srcT, dstT, lbl
	}
	d.TrainSrc, d.TrainDst, d.TrainLbl = gen(cfg.Train)
	d.TestSrc, d.TestDst, d.TestLbl = gen(cfg.Test)
	return d
}

// Regression is a synthetic linear-regression dataset standing in for the
// cpusmall task of Figure 3(b): features with a controlled curvature
// spread and targets from a fixed linear model plus noise.
type Regression struct {
	X [][]float64
	Y []float64
}

// NewRegression generates n samples in d dimensions. scales controls the
// per-coordinate feature standard deviations (curvature spectrum); when
// nil, a geometric spread from 1 down to 0.1 is used, giving a
// cpusmall-like conditioning.
func NewRegression(n, d int, scales []float64, noise float64, seed int64) *Regression {
	rng := rand.New(rand.NewSource(seed))
	if scales == nil {
		scales = make([]float64, d)
		for j := range scales {
			scales[j] = 1.0
			if d > 1 {
				frac := float64(j) / float64(d-1)
				scales[j] = math.Pow(0.1, frac)
			}
		}
	}
	w := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	r := &Regression{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		r.X[i] = make([]float64, d)
		t := 0.0
		for j := 0; j < d; j++ {
			r.X[i][j] = rng.NormFloat64() * scales[j]
			t += float64(r.X[i][j] * w[j])
		}
		r.Y[i] = t + float64(noise*rng.NormFloat64())
	}
	return r
}

// Batches splits n indices into batches of the given size, optionally
// shuffled with the provided RNG (nil for sequential order). The final
// short batch is included.
func Batches(n, size int, rng *rand.Rand) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if rng != nil {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	var out [][]int
	for s := 0; s < n; s += size {
		e := s + size
		if e > n {
			e = n
		}
		out = append(out, idx[s:e])
	}
	return out
}

// Microbatches splits a batch into ⌈len/size⌉ microbatches of at most size
// elements each.
func Microbatches(batch []int, size int) [][]int {
	var out [][]int
	for s := 0; s < len(batch); s += size {
		e := s + size
		if e > len(batch) {
			e = len(batch)
		}
		out = append(out, batch[s:e])
	}
	return out
}
