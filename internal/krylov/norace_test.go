//go:build !race

package krylov

// raceEnabled: the race detector allocates on its own account, so the
// allocation budgets are not checked under it.
const raceEnabled = false
