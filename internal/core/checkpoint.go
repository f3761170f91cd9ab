package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pipemare/internal/tensor"
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// Checkpointing serializes the leader's complete training state to a
// file of wire frames (the transport's framed codec: magic, version and
// CRC per frame), so restore is as bit-exact as a collective: master
// weights, T2 δ and corrected buffers, the full optimizer moment state,
// the per-stage weight-version rings the asynchronous methods read
// historical versions from, and the step/epoch/microbatch clocks.
//
// The batch order is a pure function of (seed, epoch) — run() draws a
// fresh RNG per epoch — so no RNG state needs to be saved: a restored
// trainer replays the interrupted epoch's order and skips the
// minibatches the checkpoint already contains.

// Checkpoint section types (frame Header.Type within a checkpoint file —
// a namespace separate from the live wire protocol).
const (
	ckptMeta  = 1 // format version, clocks, and layout counts
	ckptStage = 2 // one stage's masters, T2 state, and moments
	ckptRing  = 3 // one stage's weight-version ring
	ckptEnd   = 4 // end marker: the file was written completely
)

// ckptFormat is the checkpoint format version. Version 2 switched the
// tensor encoding to carry a per-tensor dtype tag (float32 support), so
// version-1 files are rejected rather than mis-decoded.
const ckptFormat = 2

// ckptPattern matches checkpoint files in a directory; the step number
// is zero-padded so lexical order is step order.
const ckptPattern = "ckpt-*.pm"

// maybeCheckpoint writes a checkpoint when one is configured and the
// step clock hits the cadence. Called by run() after every committed
// minibatch.
func (t *Trainer) maybeCheckpoint() error {
	if t.cfg.CheckpointDir == "" || t.cfg.CheckpointEvery <= 0 || t.step%t.cfg.CheckpointEvery != 0 {
		return nil
	}
	start := time.Now()
	t0 := t.cfg.Trace.Now()
	if _, err := t.WriteCheckpoint(t.cfg.CheckpointDir); err != nil {
		return fmt.Errorf("core: checkpoint at step %d: %w", t.step, err)
	}
	t.ctlTrack().Span(trace.NameCkptWrite, t0, -1, -1, 0)
	t.ckptWrites++
	t.ckptNs += time.Since(start).Nanoseconds()
	return nil
}

// CheckpointStats reports how many checkpoints this trainer has written
// and the cumulative wall time spent writing them.
func (t *Trainer) CheckpointStats() (writes int, ns int64) {
	return t.ckptWrites, t.ckptNs
}

// WriteCheckpoint serializes the trainer's state to a new step-stamped
// file in dir (created if missing), written to a temp file and renamed
// so a crash mid-write never leaves a truncated file under the
// checkpoint name. It returns the file's path.
func (t *Trainer) WriteCheckpoint(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	momentCount := 0
	optClock := 0
	if t.stateful != nil {
		momentCount = t.stateful.MomentCount()
		optClock = t.stateful.Clock()
	}
	meta := transport.AppendU32(nil, ckptFormat)
	meta = transport.AppendU32(meta, uint32(t.step))
	meta = transport.AppendU32(meta, uint32(t.epoch))
	meta = transport.AppendU32(meta, uint32(t.micro))
	meta = transport.AppendU32(meta, uint32(t.clock.P))
	meta = transport.AppendU32(meta, uint32(len(t.params)))
	meta = transport.AppendBool(meta, t.delta != nil)
	meta = transport.AppendU32(meta, uint32(momentCount))
	meta = transport.AppendU32(meta, uint32(optClock))
	buf := transport.AppendMessage(nil, transport.Header{Type: ckptMeta, Stage: -1}, meta)
	for s := 0; s < t.clock.P; s++ {
		lo, hi := t.stageLo[s], t.stageHi[s]
		p := transport.AppendTensors(nil, t.masters[lo:hi])
		if t.delta != nil {
			p = transport.AppendTensors(p, t.delta[lo:hi])
			p = transport.AppendTensors(p, t.corrected[lo:hi])
		}
		for i := lo; momentCount > 0 && i < hi; i++ {
			p = transport.AppendTensors(p, t.stateful.MomentTensors(i))
		}
		buf = transport.AppendMessage(buf, transport.Header{Type: ckptStage, Stage: int32(s)}, p)
	}
	for s := 0; s < t.clock.P; s++ {
		base, snaps := t.store.History(s)
		p := transport.AppendU32(nil, uint32(base))
		p = transport.AppendU32(p, uint32(len(snaps)))
		for _, sn := range snaps {
			p = transport.AppendTensors(p, sn)
		}
		buf = transport.AppendMessage(buf, transport.Header{Type: ckptRing, Stage: int32(s)}, p)
	}
	buf = transport.AppendMessage(buf, transport.Header{Type: ckptEnd, Stage: -1}, nil)

	f, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.pm", t.step))
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// ckptState is a fully parsed checkpoint, staged off to the side so a
// corrupt file is rejected before a single live tensor is touched.
type ckptState struct {
	step, epoch, micro int
	optClock           int
	stages             [][]*tensor.Tensor
	ringBase           []int
	ringSnaps          [][][]*tensor.Tensor
}

// parseCheckpoint decodes and validates b against this trainer's layout.
func (t *Trainer) parseCheckpoint(b []byte) (*ckptState, error) {
	h, payload, rest, err := transport.NextMessage(b)
	if err != nil {
		return nil, err
	}
	if h.Type != ckptMeta {
		return nil, fmt.Errorf("first section is type %d, want meta", h.Type)
	}
	c := transport.NewCursor(payload)
	format := c.I32()
	st := &ckptState{step: c.I32(), epoch: c.I32(), micro: c.I32()}
	stages, params := c.I32(), c.I32()
	t2 := c.Bool()
	momentCount := c.I32()
	st.optClock = c.I32()
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	if format != ckptFormat {
		return nil, fmt.Errorf("format version %d, want %d", format, ckptFormat)
	}
	if stages != t.clock.P || params != len(t.params) {
		return nil, fmt.Errorf("checkpoint has %d stages / %d params, trainer has %d / %d", stages, params, t.clock.P, len(t.params))
	}
	if t2 != (t.delta != nil) {
		return nil, fmt.Errorf("checkpoint T2 state %v, trainer %v", t2, t.delta != nil)
	}
	wantMoments := 0
	if t.stateful != nil {
		wantMoments = t.stateful.MomentCount()
	}
	if momentCount != wantMoments {
		return nil, fmt.Errorf("checkpoint has %d moment tensors per param, optimizer has %d (different optimizer?)", momentCount, wantMoments)
	}
	st.stages = make([][]*tensor.Tensor, stages)
	st.ringBase = make([]int, stages)
	st.ringSnaps = make([][][]*tensor.Tensor, stages)
	for s := 0; s < stages; s++ {
		h, payload, rest, err = transport.NextMessage(rest)
		if err != nil {
			return nil, err
		}
		if h.Type != ckptStage || int(h.Stage) != s {
			return nil, fmt.Errorf("section %d is type %d stage %d, want stage section %d", s, h.Type, h.Stage, s)
		}
		lo, hi := t.stageLo[s], t.stageHi[s]
		c := transport.NewCursor(payload)
		buf := c.TensorsInto(nil)
		if t.delta != nil {
			buf = append(buf, c.TensorsInto(nil)...)
			buf = append(buf, c.TensorsInto(nil)...)
		}
		for i := lo; momentCount > 0 && i < hi; i++ {
			buf = append(buf, c.TensorsInto(nil)...)
		}
		if err := c.Done(); err != nil {
			return nil, fmt.Errorf("stage %d: %w", s, err)
		}
		want := hi - lo
		if t.delta != nil {
			want *= 3
		}
		want += (hi - lo) * momentCount
		if len(buf) != want {
			return nil, fmt.Errorf("stage %d has %d tensors, want %d", s, len(buf), want)
		}
		st.stages[s] = buf
	}
	for s := 0; s < stages; s++ {
		h, payload, rest, err = transport.NextMessage(rest)
		if err != nil {
			return nil, err
		}
		if h.Type != ckptRing || int(h.Stage) != s {
			return nil, fmt.Errorf("section is type %d stage %d, want ring section %d", h.Type, h.Stage, s)
		}
		c := transport.NewCursor(payload)
		st.ringBase[s] = c.I32()
		n := c.Count(4)
		snaps := make([][]*tensor.Tensor, 0, n)
		for i := 0; i < n; i++ {
			snaps = append(snaps, c.TensorsInto(nil))
		}
		if err := c.Done(); err != nil {
			return nil, fmt.Errorf("ring %d: %w", s, err)
		}
		st.ringSnaps[s] = snaps
	}
	h, _, _, err = transport.NextMessage(rest)
	if err != nil {
		return nil, err
	}
	if h.Type != ckptEnd {
		return nil, fmt.Errorf("missing end marker (truncated checkpoint)")
	}
	return st, nil
}

// apply installs a parsed checkpoint into the live trainer state.
func (t *Trainer) apply(st *ckptState) error {
	for s := 0; s < t.clock.P; s++ {
		lo, hi := t.stageLo[s], t.stageHi[s]
		k := 0
		take := func(dst *tensor.Tensor) error {
			src := st.stages[s][k]
			k++
			if !dst.SameShape(src) {
				return fmt.Errorf("core: checkpoint stage %d tensor %d shape %v, want %v", s, k-1, src.Shape, dst.Shape)
			}
			if dst.DType() != src.DType() {
				return fmt.Errorf("core: checkpoint stage %d tensor %d dtype %v, want %v", s, k-1, src.DType(), dst.DType())
			}
			dst.CopyFrom(src)
			return nil
		}
		for i := lo; i < hi; i++ {
			if err := take(t.masters[i]); err != nil {
				return err
			}
		}
		if t.delta != nil {
			for i := lo; i < hi; i++ {
				if err := take(t.delta[i]); err != nil {
					return err
				}
			}
			for i := lo; i < hi; i++ {
				if err := take(t.corrected[i]); err != nil {
					return err
				}
			}
		}
		if t.stateful != nil {
			for i := lo; i < hi; i++ {
				for _, mt := range t.stateful.MomentTensors(i) {
					if err := take(mt); err != nil {
						return err
					}
				}
			}
		}
		t.store.RestoreStage(s, st.ringBase[s], st.ringSnaps[s])
	}
	t.setStep(st.step)
	if t.stateful != nil {
		t.stateful.SetClock(st.optClock)
	}
	t.epoch = st.epoch
	t.micro = st.micro
	t.diverged = false
	return nil
}

// RestoreFrom restores the trainer from one checkpoint file. The file is
// parsed and validated completely before any live state changes, so an
// invalid file leaves the trainer untouched.
func (t *Trainer) RestoreFrom(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, err := t.parseCheckpoint(b)
	if err != nil {
		return fmt.Errorf("core: restoring %s: %w", path, err)
	}
	if err := t.apply(st); err != nil {
		return err
	}
	t.ctlTrack().Instant(trace.NameCkptRestore, -1, -1, 0)
	return t.syncRestoredFollowers()
}

// RestoreLatest restores the trainer from the newest valid checkpoint in
// dir (older files are tried in turn when a newer one is corrupt) and
// returns the restored step. Followers — in-process or remote — are
// re-synchronized with the restored leader state, including their
// weight-version rings, so training resumes exactly where the
// checkpointed run would have continued.
func (t *Trainer) RestoreLatest(dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, ckptPattern))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("core: no checkpoints under %s", dir)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	var lastErr error
	for _, path := range paths {
		if err := t.RestoreFrom(path); err != nil {
			lastErr = err
			continue
		}
		return t.step, nil
	}
	return 0, fmt.Errorf("core: no valid checkpoint under %s: %w", dir, lastErr)
}

// syncRestoredFollowers pushes the restored leader state to every
// follower (replica.Group.Resync: epoch and step clocks, full per-stage
// state, and the weight-version rings). It also computes how many of the
// restored epoch's minibatches are already committed, for run() to skip.
func (t *Trainer) syncRestoredFollowers() error {
	if t.group != nil {
		if err := t.group.Resync(t.store.History); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	perEpoch := t.task.NumTrain() / t.cfg.BatchSize
	skip := t.step - t.epoch*perEpoch
	if skip == perEpoch {
		// Checkpoint taken at the last minibatch of an epoch, before the
		// epoch counter advanced: resume at the next epoch's start. (The
		// boundary epoch's metric entry belongs to the interrupted run.)
		t.epoch++
		skip = 0
	}
	if skip < 0 || skip > perEpoch {
		return fmt.Errorf("core: checkpoint clocks inconsistent: step %d, epoch %d, %d minibatches per epoch", t.step, t.epoch, perEpoch)
	}
	t.resumeSkip = skip
	return nil
}

// epochSeed derives the per-epoch data-order seed: a fixed mix of the
// run seed and the epoch index, so the order is reproducible from the
// clocks alone (no RNG state to checkpoint).
func epochSeed(seed int64, epoch int) int64 {
	return seed ^ (int64(epoch)+1)*int64(-0x61C8864680B583EB) // 2^64 / φ, signed
}
