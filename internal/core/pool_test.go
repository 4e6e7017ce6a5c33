package core

import (
	"fmt"
	"testing"
)

// TestForEachIndexedLowestError pins the pool's error to the one a plain
// loop returns: with several failing items and many workers, the lowest
// failing index wins on every run, whatever the scheduling.
func TestForEachIndexedLowestError(t *testing.T) {
	f := func(i int) error {
		if i == 3 || i == 11 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	}
	want := ForEachIndexed(16, 1, f)
	if want == nil || want.Error() != "item 3" {
		t.Fatalf("plain loop returned %v, want item 3", want)
	}
	for rep := 0; rep < 200; rep++ {
		if err := ForEachIndexed(16, 8, f); err == nil || err.Error() != want.Error() {
			t.Fatalf("run %d: got %v, want %v", rep, err, want)
		}
	}
}
