//go:build !race

package sm

// raceEnabled is false in ordinary builds; see race_test.go.
const raceEnabled = false
