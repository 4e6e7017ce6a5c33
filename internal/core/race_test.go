//go:build race

package core_test

func init() { raceEnabled = true } // see alloc_test.go
