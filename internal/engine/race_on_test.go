//go:build race

package engine_test

// raceEnabled reports whether the race detector instruments this
// build; its shadow-memory hooks allocate inside sync.Pool, which
// breaks allocation-count assertions.
const raceEnabled = true
