package data

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pipemare/internal/tensor"
)

func TestImagesShapesAndDeterminism(t *testing.T) {
	cfg := ImagesConfig{Classes: 4, C: 3, H: 4, W: 4, Train: 20, Test: 10, Noise: 0.5, Seed: 1}
	a := NewImages(cfg)
	b := NewImages(cfg)
	if a.TrainX.Shape[0] != 20 || a.TrainX.Shape[1] != 3 {
		t.Fatalf("train shape %v", a.TrainX.Shape)
	}
	bx := tensor.F64(b.TrainX)
	for i, v := range tensor.F64(a.TrainX) {
		if v != bx[i] {
			t.Fatal("same seed must give identical data")
		}
	}
	for _, y := range a.TrainY {
		if y < 0 || y >= 4 {
			t.Fatalf("label %d out of range", y)
		}
	}
	flat := a.FlatTrain()
	if flat.Shape[1] != 3*4*4 {
		t.Fatalf("flat shape %v", flat.Shape)
	}
	// Flat view shares data.
	tensor.F64(flat)[0] = 99
	if tensor.F64(a.TrainX)[0] != 99 {
		t.Fatal("FlatTrain must be a view")
	}
}

func TestImagesSeparableAtLowNoise(t *testing.T) {
	// Nearest-template classification should be nearly perfect at low noise:
	// sanity that the task is learnable.
	d := NewImages(ImagesConfig{Classes: 5, C: 1, H: 4, W: 4, Train: 50, Test: 50, Noise: 0.1, Seed: 2})
	px := 16
	correct := 0
	for i := 0; i < 50; i++ {
		best, bi := 1e18, -1
		for c := 0; c < 5; c++ {
			s := 0.0
			for j := 0; j < px; j++ {
				diff := tensor.F64(d.TestX)[i*px+j] - tensor.F64(d.templates)[c*px+j]
				s += diff * diff
			}
			if s < best {
				best, bi = s, c
			}
		}
		if bi == d.TestY[i] {
			correct++
		}
	}
	if correct < 48 {
		t.Fatalf("nearest-template accuracy %d/50, task not separable", correct)
	}
}

func TestTranslationStructure(t *testing.T) {
	d := NewTranslation(TranslationConfig{Vocab: 12, SrcLen: 6, Train: 30, Test: 10, Seed: 3})
	if d.TgtLen != 7 {
		t.Fatalf("TgtLen = %d, want 7", d.TgtLen)
	}
	for i := 0; i < 30; i++ {
		// Decoder input starts with BOS.
		if int(d.TrainDst.FlatAt(i*d.TgtLen)) != BOS {
			t.Fatal("decoder input must start with BOS")
		}
		// Labels end with EOS.
		if d.TrainLbl[i][6] != EOS {
			t.Fatal("labels must end with EOS")
		}
		// Teacher forcing alignment: dst[j+1] == lbl[j] for content tokens.
		for j := 0; j < 6; j++ {
			if int(d.TrainDst.FlatAt(i*d.TgtLen+j+1)) != d.TrainLbl[i][j] {
				t.Fatal("decoder input must be shifted labels")
			}
		}
	}
}

func TestTranslationTransformIsDeterministicFunctionOfSource(t *testing.T) {
	// The mapping src → target must be a pure function: rebuild the
	// expected output from the documented rule.
	d := NewTranslation(TranslationConfig{Vocab: 10, SrcLen: 5, Train: 20, Test: 5, Seed: 4})
	content := 10 - 3
	for i := 0; i < 20; i++ {
		src := make([]int, 5)
		for j := range src {
			src[j] = int(d.TrainSrc.FlatAt(i*5 + j))
		}
		shift := src[0] - 3
		for j := 0; j < 5; j++ {
			want := 3 + ((src[5-1-j]-3)+shift)%content
			if d.TrainLbl[i][j] != want {
				t.Fatalf("sample %d pos %d: label %d, want %d", i, j, d.TrainLbl[i][j], want)
			}
		}
	}
}

func TestTranslationVocabTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTranslation(TranslationConfig{Vocab: 4, SrcLen: 3, Train: 1, Test: 1})
}

func TestRegressionShapes(t *testing.T) {
	r := NewRegression(40, 12, nil, 0.1, 5)
	if len(r.X) != 40 || len(r.X[0]) != 12 || len(r.Y) != 40 {
		t.Fatal("regression shapes wrong")
	}
	// Later coordinates must have smaller scale (conditioning spread).
	var v0, v11 float64
	for i := range r.X {
		v0 += r.X[i][0] * r.X[i][0]
		v11 += r.X[i][11] * r.X[i][11]
	}
	if v0 <= v11 {
		t.Fatal("coordinate scales should decrease")
	}
}

func TestBatchesCoverAllIndicesOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		size := 1 + rng.Intn(20)
		bs := Batches(n, size, rng)
		seen := make(map[int]bool)
		for _, b := range bs {
			if len(b) > size {
				return false
			}
			for _, i := range b {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchesSequentialWithoutRNG(t *testing.T) {
	bs := Batches(5, 2, nil)
	if len(bs) != 3 || bs[0][0] != 0 || bs[2][0] != 4 {
		t.Fatalf("sequential batches %v", bs)
	}
}

func TestMicrobatches(t *testing.T) {
	mb := Microbatches([]int{5, 6, 7, 8, 9}, 2)
	if len(mb) != 3 || len(mb[2]) != 1 || mb[2][0] != 9 {
		t.Fatalf("microbatches %v", mb)
	}
}
