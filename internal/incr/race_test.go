//go:build race

package incr_test

func init() { raceEnabled = true } // see wire_test.go
