//go:build race

package workload

const raceDetector = true
