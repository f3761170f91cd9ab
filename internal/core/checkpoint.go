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
// CRC per frame), so restore is as bit-exact as a collective. The file is
// the state handoff written down: after the meta, one section per stage
// whose payload is the stage's state list (layoutStages) encoded exactly
// as MsgSetState carries it under the fault-tolerant layout, then one
// section per stage whose payload is the MsgSetRing payload of the
// stage's weight-version ring — the historical versions the asynchronous
// methods read. The rings are the clock: their newest version is the step
// count, from which the epoch and the position within it derive.
//
// The batch order is a pure function of (seed, epoch) — run() draws a
// fresh RNG per epoch — so no RNG state needs to be saved: a restored
// trainer replays the interrupted epoch's order and skips the
// minibatches the checkpoint already contains.

// Checkpoint section types (frame Header.Type within a checkpoint file —
// a namespace separate from the live wire protocol).
const (
	ckptMeta  = 1 // format version and stage count
	ckptStage = 2 // one stage's state: the MsgSetState payload
	ckptRing  = 3 // one stage's weight-version ring: the MsgSetRing payload
	ckptEnd   = 4 // end marker: the file was written completely
)

// ckptFormat is the checkpoint format version. Version 2 added the
// per-tensor dtype tag (float32 support); version 3 made each section's
// payload the wire message's (one counted tensor list per stage instead
// of one per kind of state); version 4 dropped the meta's clocks, which
// the rings carry; version 5 writes tensor element blocks little-endian
// (wire version 9). Files of another version are rejected rather than
// mis-decoded: a version 4 file's frames carry wire version 8, which the
// frame reader refuses before the meta is read.
const ckptFormat = 5

// ckptPattern matches checkpoint files in a directory; the step number
// is zero-padded so lexical order is step order.
const ckptPattern = "ckpt-*.pm"

// maybeCheckpoint writes a checkpoint when one is configured and the
// step count hits the cadence. Called by run() after every committed
// minibatch.
func (t *Trainer) maybeCheckpoint() error {
	if t.cfg.CheckpointDir == "" || t.cfg.CheckpointEvery <= 0 || t.steps()%t.cfg.CheckpointEvery != 0 {
		return nil
	}
	start := time.Now()
	t0 := t.cfg.Trace.Now()
	if _, err := t.WriteCheckpoint(t.cfg.CheckpointDir); err != nil {
		return fmt.Errorf("core: checkpoint at step %d: %w", t.steps(), err)
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
// checkpoint name. Each section streams to the file a frame at a time,
// encoded from the live tensors (transport.FrameWriter): the file never
// exists in memory. It returns the file's path.
func (t *Trainer) WriteCheckpoint(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	if err := t.writeSections(transport.NewFrameWriter(f)); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.pm", t.steps()))
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// writeSections writes the checkpoint's sections, in file order.
func (t *Trainer) writeSections(fw *transport.FrameWriter) error {
	meta := transport.AppendU32(transport.AppendU32(nil, ckptFormat), uint32(t.clock.P))
	if err := fw.WriteMsg(transport.Msg{Type: ckptMeta, Stage: -1, Data: meta}); err != nil {
		return err
	}
	for s, state := range t.state {
		if err := fw.WriteMsg(transport.Msg{Type: ckptStage, Stage: int32(s), Lists: [][]*tensor.Tensor{state}}); err != nil {
			return err
		}
	}
	for s := range t.state {
		base, snaps := t.store.History(s)
		if err := fw.WriteMsg(transport.RingMsg(ckptRing, s, base, snaps)); err != nil {
			return err
		}
	}
	return fw.WriteMsg(transport.Msg{Type: ckptEnd, Stage: -1})
}

// ckptState is a fully parsed and validated checkpoint, staged off to the
// side so a file that does not fit this trainer is rejected before a
// single live tensor is touched.
type ckptState struct {
	stages    [][]*tensor.Tensor
	ringBase  []int
	ringSnaps [][][]*tensor.Tensor
}

// parseCheckpoint reads the file at path and validates every section
// against this trainer's stage layout, and the rings against each other:
// they are the clock, so every one must end at the same version. What it
// returns, apply installs without another check.
func (t *Trainer) parseCheckpoint(path string) (_ *ckptState, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("core: restoring %s: %w", path, err)
		}
	}()
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// section reads the next section, which must have the given type and
	// stage.
	section := func(typ byte, stage int) (*transport.Cursor, error) {
		m, rest, err := transport.NextMessage(b)
		if err != nil {
			return nil, err
		}
		if m.Type != typ || int(m.Stage) != stage {
			return nil, fmt.Errorf("section is type %d stage %d, want type %d stage %d (truncated or reordered checkpoint)", m.Type, m.Stage, typ, stage)
		}
		b = rest
		return transport.NewCursor(m.Data), nil
	}
	c, err := section(ckptMeta, -1)
	if err != nil {
		return nil, err
	}
	if format := c.I32(); format != ckptFormat {
		return nil, fmt.Errorf("format version %d, want %d", format, ckptFormat)
	}
	p := c.I32()
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	if p != t.clock.P {
		return nil, fmt.Errorf("checkpoint has %d stages, trainer has %d", p, t.clock.P)
	}
	st := &ckptState{}
	st.stages = make([][]*tensor.Tensor, p)
	st.ringBase = make([]int, p)
	st.ringSnaps = make([][][]*tensor.Tensor, p)
	for s := range st.stages {
		if c, err = section(ckptStage, s); err != nil {
			return nil, err
		}
		st.stages[s] = c.TensorsInto(nil)
		if err := c.Done(); err != nil {
			return nil, fmt.Errorf("stage %d: %w", s, err)
		}
		if err := checkStage(s, t.state[s], st.stages[s]); err != nil {
			return nil, err
		}
	}
	for s := range st.stages {
		if c, err = section(ckptRing, s); err != nil {
			return nil, err
		}
		st.ringBase[s], st.ringSnaps[s] = c.Ring()
		if err := c.Done(); err != nil {
			return nil, fmt.Errorf("ring %d: %w", s, err)
		}
		if err := t.checkRing(s, st.ringBase[s], st.ringSnaps[s]); err != nil {
			return nil, err
		}
		end := st.ringBase[s] + len(st.ringSnaps[s]) - 1
		if end0 := st.ringBase[0] + len(st.ringSnaps[0]) - 1; end != end0 {
			return nil, fmt.Errorf("ring %d ends at version %d, ring 0 at %d", s, end, end0)
		}
	}
	if _, err := section(ckptEnd, -1); err != nil {
		return nil, err
	}
	return st, nil
}

// apply installs a parsed checkpoint into the live trainer state and
// pushes it to every follower (replica.Group.Resync: full per-stage state,
// then the weight-version rings, which carry the step count).
func (t *Trainer) apply(st *ckptState) error {
	for s, state := range t.state {
		for k, dst := range state {
			dst.CopyFrom(st.stages[s][k])
		}
		t.store.RestoreStage(s, st.ringBase[s], st.ringSnaps[s])
	}
	t.diverged = false
	t.ctlTrack().Instant(trace.NameCkptRestore, -1, -1, 0)
	if err := t.group.Resync(t.store.History); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// RestoreFrom restores the trainer from one checkpoint file. The file is
// parsed and validated completely before any live state changes, so an
// invalid file leaves the trainer untouched.
func (t *Trainer) RestoreFrom(path string) error {
	st, err := t.parseCheckpoint(path)
	if err != nil {
		return err
	}
	return t.apply(st)
}

// RestoreLatest restores the trainer from the newest valid checkpoint in
// dir (older files are tried in turn when a newer one cannot be read or
// does not fit) and returns the restored step. Followers — in-process or
// remote — are re-synchronized with the restored leader state, including
// their weight-version rings, so training resumes exactly where the
// checkpointed run would have continued; a follower that fails that is
// the error, not a reason to try an older file.
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
		st, err := t.parseCheckpoint(path)
		if err != nil {
			lastErr = err
			continue
		}
		if err := t.apply(st); err != nil {
			return 0, err
		}
		return t.steps(), nil
	}
	return 0, fmt.Errorf("core: no valid checkpoint under %s: %w", dir, lastErr)
}

// epochSeed derives the per-epoch data-order seed: a fixed mix of the
// run seed and the epoch index, so the order is reproducible from the
// step count alone (no RNG state to checkpoint).
func epochSeed(seed int64, epoch int) int64 {
	return seed ^ (int64(epoch)+1)*int64(-0x61C8864680B583EB) // 2^64 / φ, signed
}
