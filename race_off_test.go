//go:build !race

package hmts_test

const raceEnabled = false
