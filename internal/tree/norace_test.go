//go:build !race

package tree

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
