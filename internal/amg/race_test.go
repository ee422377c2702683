//go:build race

package amg

// raceEnabled: the race detector allocates on its own account, so the
// allocation budgets are not checked under it.
const raceEnabled = true
