//go:build !race

package nn

const raceEnabled = false

// checkPanel is a no-op outside race builds (race.go).
func checkPanel(*Param) {}
