package encode

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestJourneyCacheSingleFlight: concurrent askers for one key share one
// enumeration and count as hits; its error reaches every one of them and
// is not cached, while a success is. An enumeration that panics leaves
// nothing in flight for later askers to block on.
func TestJourneyCacheSingleFlight(t *testing.T) {
	c := NewJourneyCache()
	k, pk := journeyKey{problem: c.problem([]byte("k"))}, journeyKey{problem: c.problem([]byte("p"))}
	const askers = 8
	boom := errors.New("boom")
	release := make(chan struct{})
	calls := 0 // written only by the one enumeration
	var wg sync.WaitGroup
	errs := make([]error, askers)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.paths(k, func() ([]jpath, error) {
				calls++
				<-release
				return nil, boom
			})
		}()
	}
	for h, m := c.Stats(); h+m < askers; h, m = c.Stats() {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("%d enumerations of one key, want 1", calls)
	}
	for i, err := range errs {
		if err != boom {
			t.Fatalf("asker %d: error %v, want the enumeration's", i, err)
		}
	}
	if h, m := c.Stats(); h != askers-1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want %d and 1", h, m, askers-1)
	}

	want := []jpath{{}}
	if got, err := c.paths(k, func() ([]jpath, error) { return want, nil }); err != nil || len(got) != 1 {
		t.Fatalf("a failed enumeration must not be cached: got %v, %v", got, err)
	}
	if got, err := c.paths(k, func() ([]jpath, error) { t.Fatal("cached key enumerated again"); return nil, nil }); err != nil || len(got) != 1 {
		t.Fatalf("cached paths: got %v, %v", got, err)
	}
	if h, m := c.Stats(); h != askers || m != 2 {
		t.Fatalf("hits=%d misses=%d, want %d and 2", h, m, askers)
	}

	func() {
		defer func() { _ = recover() }()
		c.paths(pk, func() ([]jpath, error) { panic("enumeration bug") })
	}()
	if _, err := c.paths(pk, func() ([]jpath, error) { return want, nil }); err != nil {
		t.Fatalf("a panicked enumeration must not stay in flight: %v", err)
	}
}

// TestJourneyCacheProblemEviction: a problem key evicted from the intern
// table comes back under a fresh id and enumerates its journeys again, and
// no id names two problems, so a problem never reads another's journeys.
func TestJourneyCacheProblemEviction(t *testing.T) {
	c := NewJourneyCache()
	first := c.problem([]byte("p0"))
	if again := c.problem([]byte("p0")); again != first {
		t.Fatalf("interned twice: ids %d and %d", first, again)
	}
	old := []jpath{{}}
	if _, err := c.paths(journeyKey{problem: first}, func() ([]jpath, error) { return old, nil }); err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]string{first: "p0"}
	for i := range journeyProblemCap {
		key := fmt.Sprintf("q%d", i)
		id := c.problem([]byte(key))
		if prev, ok := ids[id]; ok {
			t.Fatalf("id %d names both %s and %s", id, prev, key)
		}
		ids[id] = key
		if _, err := c.paths(journeyKey{problem: id}, func() ([]jpath, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	fresh := c.problem([]byte("p0"))
	if _, ok := ids[fresh]; ok {
		t.Fatalf("evicted p0 came back under id %d, which names %s", fresh, ids[fresh])
	}
	enumerated := false
	got, err := c.paths(journeyKey{problem: fresh}, func() ([]jpath, error) { enumerated = true; return []jpath{{}, {}}, nil })
	if err != nil || !enumerated || len(got) != 2 {
		t.Fatalf("evicted p0 must enumerate again: enumerated %v, %d paths, %v", enumerated, len(got), err)
	}
}
