//go:build race

package httpserve

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
