//go:build race

package experiments

const raceDetector = true
