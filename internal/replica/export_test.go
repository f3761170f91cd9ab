package replica

import "pipemare/internal/engine"

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

// Admit parks each follower and moves it straight to Active: the launch
// admission without its state handoff, for fixtures whose members start
// out equal.
func (g *Group) Admit(ms ...Member) error {
	for _, m := range ms {
		id, err := g.Park(m)
		if err != nil {
			return err
		}
		g.Transition(id, Active)
	}
	return nil
}
