package replica_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/replica"
	"pipemare/internal/trace"
)

// clipPartials are the per-stage clip partials the phase members report,
// chosen so that any summation order but the stage-ordered left fold
// gives a different float.
var clipPartials = []float64{1e16, 1, -1e16, 1, 1, 3}

// phaseLedger checks the commit contract at call time, across every
// member of a group: each stage is prepared exactly once before the clip
// fold, the fold is the stage-ordered left fold of the partials, and
// each stage is stepped once, after the fold, with the folded factor.
// calls logs every phase call in the order the members made them.
type phaseLedger struct {
	n int // microbatches per minibatch

	mu                sync.Mutex
	errs              []string
	prepared, stepped []int
	clipped           bool
	calls             []phaseCall
}

// phaseCall is one commit-phase call: which replica made it, the phase
// ("prepare", "fold" or "step"), the stage (-1 for the fold) and the
// step's scale.
type phaseCall struct {
	id    int
	phase string
	stage int
	scale float64
}

func newPhaseLedger(n int) *phaseLedger {
	p := len(clipPartials)
	return &phaseLedger{n: n, prepared: make([]int, p), stepped: make([]int, p)}
}

func (l *phaseLedger) errf(format string, args ...any) {
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

func once(counts []int) bool {
	for _, n := range counts {
		if n != 1 {
			return false
		}
	}
	return true
}

// phaseMember is an in-process member whose chunks run on eng, whose
// commit phases report to a ledger shared with the rest of its group, and
// whose events land in rec under replica index id.
type phaseMember struct {
	*fakeMember
	l   *phaseLedger
	eng engine.Engine
	rec *trace.Recorder
	id  int
}

func newPhaseMember(l *phaseLedger, eng engine.Engine, rec *trace.Recorder, id int) *phaseMember {
	return &phaseMember{fakeMember: newFakeMember(len(clipPartials)), l: l, eng: eng, rec: rec, id: id}
}

func (m *phaseMember) Engine() engine.Engine          { return m.eng }
func (m *phaseMember) Tracer() (*trace.Recorder, int) { return m.rec, m.id }

func (m *phaseMember) PrepareStage(stage, nMicro int) float64 {
	l := m.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if nMicro != l.n {
		l.errf("PrepareStage(%d) over %d microbatches, want %d", stage, nMicro, l.n)
	}
	if l.clipped {
		l.errf("PrepareStage(%d) after the clip fold", stage)
	}
	l.prepared[stage]++
	l.calls = append(l.calls, phaseCall{m.id, "prepare", stage, 0})
	return clipPartials[stage]
}

func (m *phaseMember) ClipScale(sumSq float64) float64 {
	l := m.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if !once(l.prepared) {
		l.errf("ClipScale before every stage was prepared once: %v", l.prepared)
	}
	want := 0.0
	for _, v := range clipPartials {
		want += v
	}
	if sumSq != want {
		l.errf("ClipScale sum %g, want the stage-ordered fold %g", sumSq, want)
	}
	l.clipped = true
	l.calls = append(l.calls, phaseCall{m.id, "fold", -1, 0})
	return 0.5
}

func (m *phaseMember) StepStage(stage int, scale float64) {
	l := m.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.clipped {
		l.errf("replica %d: StepStage(%d) before the clip fold", m.id, stage)
	}
	if scale != 0.5 {
		l.errf("StepStage(%d) scale %g, want the folded 0.5", stage, scale)
	}
	l.stepped[stage]++
	l.calls = append(l.calls, phaseCall{m.id, "step", stage, scale})
}

var _ replica.Leader = (*phaseMember)(nil)

// phaseGroup builds a group over one phase member per engine — the first
// leads — sharing a ledger for minibatches of n microbatches and a
// recorder.
func phaseGroup(t *testing.T, n int, engs ...engine.Engine) (*replica.Group, *phaseLedger, []*phaseMember, *trace.Recorder) {
	t.Helper()
	l, rec := newPhaseLedger(n), trace.New()
	var ms []*phaseMember
	var followers []replica.Member
	for i, eng := range engs {
		ms = append(ms, newPhaseMember(l, eng, rec, i))
		if i > 0 {
			followers = append(followers, ms[i])
		}
	}
	g := replica.NewGroup(ms[0], false)
	if err := g.Admit(followers...); err != nil {
		t.Fatal(err)
	}
	return g, l, ms, rec
}

// step streams one minibatch of n single-sample microbatches through g,
// which commits it.
func step(t *testing.T, g *replica.Group, n int) {
	t.Helper()
	micros := make([][]int, n)
	for i := range micros {
		micros[i] = []int{i}
	}
	if _, err := g.Stream(context.Background(), [][][]int{micros}); err != nil {
		t.Fatal(err)
	}
}

// TestCommitRunsPhasesInOrderForAnyShardCount drives the commit over a
// group of one — inside its stream, as a job per Reference stage or per
// concurrent segment at W ∈ {1, 2, 4} (S = min(P, 2W) segments) — and
// over two replicas that each run their shard of Group.Commit as one
// job: the phase order, the once-per-stage coverage and the
// stage-ordered clip fold hold for every shard count, the commit spans
// keep their names on worker tracks, and a group of one records no
// collective.
func TestCommitRunsPhasesInOrderForAnyShardCount(t *testing.T) {
	rev := 0.0
	for i := len(clipPartials) - 1; i >= 0; i-- {
		rev += clipPartials[i]
	}
	fwd := 0.0
	for _, v := range clipPartials {
		fwd += v
	}
	if fwd == rev {
		t.Fatal("the clip partials do not distinguish summation orders")
	}
	pooled := func(w int) engine.Engine { return concurrent.New(w) }
	for _, tc := range []struct {
		name   string
		engs   []engine.Engine
		shards int // commit spans per phase, over all members
	}{
		{"R=1/reference", []engine.Engine{engine.NewReference()}, 6},
		{"R=1/concurrent/W=1", []engine.Engine{pooled(1)}, 2},
		{"R=1/concurrent/W=2", []engine.Engine{pooled(2)}, 4},
		{"R=1/concurrent/W=4", []engine.Engine{pooled(4)}, 6},
		{"R=2/concurrent/W=2", []engine.Engine{pooled(2), pooled(2)}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			g, l, ms, rec := phaseGroup(t, n, tc.engs...)
			step(t, g, n)
			if len(l.errs) > 0 {
				t.Fatalf("commit contract violations: %v", l.errs)
			}
			if !once(l.prepared) || !once(l.stepped) {
				t.Fatalf("prepared %v, stepped %v; want once each", l.prepared, l.stepped)
			}
			spans := map[string]int{}
			for _, tk := range rec.Tracks() {
				for _, ev := range tk.Events() {
					switch {
					case ev.Name == trace.NameFwd || ev.Name == trace.NameBwd:
					case strings.HasPrefix(ev.Name, "commit:"):
						if tk.Tid >= trace.TidCollectives {
							t.Fatalf("%s span on track %d, want a worker track", ev.Name, tk.Tid)
						}
						spans[ev.Name]++
					case len(ms) == 1:
						t.Fatalf("a group of one recorded %q on track %d", ev.Name, tk.Tid)
					}
				}
			}
			for _, name := range []string{trace.NameCommitPrepare, trace.NameCommitStep} {
				if spans[name] != tc.shards {
					t.Fatalf("%d %s spans, want one per piece (%d): %v", spans[name], name, tc.shards, spans)
				}
			}
		})
	}
}

// TestCollectiveBytesCountEveryImporter pins what the collective spans
// report: the gather moves each stage's state to every member but its
// owner, so an R = 3 gather moves twice the group's stage state, and the
// scatter moves the follower-owned stages' gradients once; a group of one
// moves nothing and records no collective at all.
func TestCollectiveBytesCountEveryImporter(t *testing.T) {
	const n = 3
	g, _, ms, rec := phaseGroup(t, n, engine.NewReference(), engine.NewReference(), engine.NewReference())
	step(t, g, n)
	var state int64 // Σ over stages of one copy of the stage's state
	for st := range clipPartials {
		for _, x := range ms[0].StageState(st) {
			state += int64(x.Bytes())
		}
	}
	got := map[string]int64{}
	for _, tk := range rec.Tracks() {
		for _, ev := range tk.Events() {
			if tk.Pid == 0 && tk.Tid == trace.TidCollectives {
				got[ev.Name] += ev.Bytes
			}
		}
	}
	// P = 6 over R = 3: the followers own 4 stages of one 8-byte gradient.
	if want := 2 * state; got[trace.NameGather] != want {
		t.Fatalf("gather moved %d bytes, want 2 × %d of stage state", got[trace.NameGather], state)
	}
	if got[trace.NameScatter] != 4*8 {
		t.Fatalf("scatter moved %d bytes, want %d", got[trace.NameScatter], 4*8)
	}
	// The reduce folds the followers' one microbatch each, every stage.
	if got[trace.NameReduce] != 2*6*8 {
		t.Fatalf("reduce moved %d bytes, want %d", got[trace.NameReduce], 2*6*8)
	}

	g, _, _, rec = phaseGroup(t, n, engine.NewReference())
	step(t, g, n)
	for _, tk := range rec.Tracks() {
		if tk.Tid == trace.TidCollectives && len(tk.Events()) > 0 {
			t.Fatalf("a group of one recorded %d events on its collectives track, first %q", len(tk.Events()), tk.Events()[0].Name)
		}
	}
}

// TestTakeOverRestepsTheDeadShardOnTheLeader fails the follower of a
// fault-tolerant R = 2 group in its step phase. The leader must then
// prepare, then step, each stage of the dead shard exactly once — after
// the fold, under the folded scale, as one prepare and one step span on
// its collectives track — and the commit must stand: the follower leaves
// without a replay.
func TestTakeOverRestepsTheDeadShardOnTheLeader(t *testing.T) {
	const n = 2
	l, rec := newPhaseLedger(n), trace.New()
	lead := newPhaseMember(l, engine.NewReference(), rec, 0)
	p := len(clipPartials)
	follower := &fakeRemote{Member: newPhaseMember(l, nil, nil, 1), p: p, failAt: "step"}
	g := replica.NewGroup(lead, true)
	if err := g.Admit(follower); err != nil {
		t.Fatal(err)
	}
	_, err := g.Stream(context.Background(), [][][]int{{{0}, {1}}})
	var me *replica.MemberError
	if !errors.As(err, &me) || me.ID != follower.id || me.To != replica.Gone || me.Replay {
		t.Fatalf("commit error %v, want the follower to leave without a replay", err)
	}
	lo, hi := g.Plan().Shard(1)
	fold := slices.IndexFunc(l.calls, func(c phaseCall) bool { return c.phase == "fold" })
	for st := lo; st < hi; st++ {
		var prepares, steps []int
		for i, c := range l.calls[fold+1:] {
			switch {
			case c.stage != st:
			case c.id != 0:
				t.Fatalf("replica %d called %s(%d) after the fold", c.id, c.phase, st)
			case c.phase == "prepare":
				prepares = append(prepares, i)
			case c.phase == "step":
				steps = append(steps, i)
				if c.scale != 0.5 {
					t.Fatalf("the leader stepped stage %d under %g, want the folded 0.5", st, c.scale)
				}
			}
		}
		if len(prepares) != 1 || len(steps) != 1 || prepares[0] > steps[0] {
			t.Fatalf("stage %d: the leader prepared at %v and stepped at %v after the fold, want one prepare, then one step", st, prepares, steps)
		}
	}
	// The contract's one permitted breach is the re-prepare of the dead
	// shard after the fold.
	var late []string
	for st := lo; st < hi; st++ {
		late = append(late, fmt.Sprintf("PrepareStage(%d) after the clip fold", st))
	}
	if !slices.Equal(l.errs, late) {
		t.Fatalf("commit contract violations %v, want only the takeover's %v", l.errs, late)
	}
	if !once(l.stepped) {
		t.Fatalf("stepped %v, want every stage once", l.stepped)
	}
	spans := map[string][]int{}
	for _, tk := range rec.Tracks() {
		if tk.Pid == 0 && tk.Tid == trace.TidCollectives {
			for _, ev := range tk.Events() {
				if strings.HasPrefix(ev.Name, "commit:") {
					spans[ev.Name] = append(spans[ev.Name], ev.Stage)
				}
			}
		}
	}
	for _, name := range []string{trace.NameCommitPrepare, trace.NameCommitStep} {
		if !slices.Equal(spans[name], []int{lo}) {
			t.Fatalf("leader's collectives track holds %s spans at stages %v, want one at %d", name, spans[name], lo)
		}
	}
}
