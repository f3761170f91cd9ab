//go:build race

package nn

import "fmt"

// raceEnabled is true under the race detector. Tape.NewTensor then fills
// every tensor it hands out with NaN, so a call site that reads a tape
// tensor before writing it fails loudly instead of reading a previous
// microbatch's values. (Tests also read it: sync.Pool drops a quarter of
// its Puts on purpose there, so the matmul's pooled B panel allocates and
// allocation bounds on a layer pass cannot hold.)
const raceEnabled = true

// checkPanel re-packs the snapshot p reads and panics, naming p, when its
// reused panel no longer holds those bits: the snapshot was written after
// it was packed, which VersionStore.Get's contract forbids.
func checkPanel(p *Param) {
	if !p.panel.Packs(p.Data) {
		panic(fmt.Sprintf("nn: %v: weight snapshot changed after its Wᵀ panel was packed", p))
	}
}
