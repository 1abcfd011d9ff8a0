//go:build !race

package httpserve

// raceEnabled reports whether the race detector instruments this build.
// The allocation guards skip under -race: the instrumentation itself
// allocates.
const raceEnabled = false
