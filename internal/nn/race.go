//go:build race

package nn

// raceEnabled is true under the race detector. Tape.NewTensor then fills
// every tensor it hands out with NaN, so a call site that reads a tape
// tensor before writing it fails loudly instead of reading a previous
// microbatch's values. (Tests also read it: sync.Pool drops a quarter of
// its Puts on purpose there, so the matmul's pooled B panel allocates and
// allocation bounds on a layer pass cannot hold.)
const raceEnabled = true
