//go:build race

package esp32

// raceEnabled reports whether the race detector is on; the scheduler's
// wheel-level sync.Pool sheds items under -race, so steady-state
// allocation assertions gate on it.
const raceEnabled = true
