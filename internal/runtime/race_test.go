//go:build race

package runtime

const raceDetector = true
