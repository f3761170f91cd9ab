package replica

import (
	"context"

	"pipemare/internal/engine"
)

// Read-only views of the group for the package's external tests; nothing
// outside the package needs them.

// State returns member id's state; ids the table does not hold are Gone.
func (g *Group) State(id int) State {
	if i := g.index(id); i >= 0 {
		return g.members[i].state
	}
	return Gone
}

// Plan returns the sharded commit's owner plan over the active members.
func (g *Group) Plan() engine.CommitPlan { return g.plan }

// Compute returns the compute wrapper of the active member at position r
// (nil for a remote member).
func (g *Group) Compute(r int) *Compute { return g.members[r].comp }

// Begin splits a minibatch into the active members' chunks.
func (g *Group) Begin(ctx context.Context, micros [][]int) [][][]int { return g.begin(ctx, micros) }
