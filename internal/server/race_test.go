//go:build race

package server

// raceDetector is true in a -race build, where sync.Pool drops a
// random quarter of its Puts on purpose, so pooled-arena allocation
// bounds do not hold.
const raceDetector = true
