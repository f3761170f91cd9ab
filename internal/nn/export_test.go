package nn

import (
	"maps"
	"sync"
)

// CountPanels counts the Wᵀ panels forwardPanel packs, per param, from
// now until stop runs; counts returns a copy of the tally so far.
func CountPanels() (counts func() map[*Param]int, stop func()) {
	var mu sync.Mutex
	n := map[*Param]int{}
	onPack = func(p *Param) {
		mu.Lock()
		n[p]++
		mu.Unlock()
	}
	counts = func() map[*Param]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(n)
	}
	return counts, func() { onPack = nil }
}

// HoldsPanel reports whether p holds a Wᵀ panel.
func HoldsPanel(p *Param) bool { return p.panelOf != nil }
