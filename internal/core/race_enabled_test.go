//go:build race

package core

// raceEnabled reports whether this test binary was built with -race.
// sync.Pool intentionally drops a random fraction of Puts under the race
// detector, so tests asserting exact recycle counts must relax there.
const raceEnabled = true
