//go:build race

package sm

// raceEnabled reports a race-detector build, under which sync.Pool
// drops items at random and allocation counts stop repeating.
const raceEnabled = true
