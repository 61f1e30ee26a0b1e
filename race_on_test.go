//go:build race

package hmts_test

// raceEnabled lets load-heavy tests shrink their input under the race
// detector, which slows the engine by an order of magnitude.
const raceEnabled = true
