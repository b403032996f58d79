//go:build race

package datalogeq_test

// raceDetector reports whether the tests run under -race, whose memory
// overhead makes the largest benchmark stores too big for a test.
const raceDetector = true
