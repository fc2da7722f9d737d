//go:build race

package tree

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// share of what it is given, so allocation counts through the scratch
// pool are not meaningful.
const raceEnabled = true
