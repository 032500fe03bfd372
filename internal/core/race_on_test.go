//go:build race

package core

// raceEnabled reports whether the race detector is on; sync.Pool sheds
// items under -race, so steady-state allocation assertions gate on it.
const raceEnabled = true
