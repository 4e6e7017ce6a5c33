package encode

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/topo"
)

// TestJourneyCacheSingleFlight: concurrent askers for one problem share
// one enumeration of each sample and count as hits. A failed enumeration
// caches the samples it enumerated before failing, and only those; one
// that panics leaves the problem unlocked for later askers.
func TestJourneyCacheSingleFlight(t *testing.T) {
	c := NewJourneyCache()
	k, pk := c.problem([]byte("k")), c.problem([]byte("p"))
	samples := []inv.Sample{{Sender: 1}, {Sender: 2}}
	const askers = 8
	release := make(chan struct{})
	var calls atomic.Int32
	enumerate := func(inv.Sample) (journeySet, error) {
		calls.Add(1)
		<-release
		return journeySet{paths: [][]jpath{{{}}}, shared: true}, nil
	}
	var wg sync.WaitGroup
	got := make([][]journeySet, askers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = c.sets(k, samples, enumerate)
		}()
	}
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	for range 100 {
		runtime.Gosched() // let the other askers reach the flight
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != int32(len(samples)) {
		t.Fatalf("%d enumerations of %d samples, want one each", n, len(samples))
	}
	for i, sets := range got {
		if len(sets) != len(samples) || len(sets[1].paths) != 1 {
			t.Fatalf("asker %d: %v", i, sets)
		}
	}
	if h, m := c.Stats(); h != (askers-1)*int64(len(samples)) || m != int64(len(samples)) {
		t.Fatalf("hits=%d misses=%d, want %d and %d", h, m, (askers-1)*len(samples), len(samples))
	}

	boom := errors.New("boom")
	fail := func(s inv.Sample) (journeySet, error) {
		if s.Sender == 2 {
			return journeySet{}, boom
		}
		return journeySet{paths: [][]jpath{nil}}, nil
	}
	if _, err := c.sets(pk, samples, fail); err != boom {
		t.Fatalf("error %v, want the enumeration's", err)
	}
	var again []topo.NodeID
	if _, err := c.sets(pk, samples, func(s inv.Sample) (journeySet, error) {
		again = append(again, s.Sender)
		return journeySet{paths: [][]jpath{nil}}, nil
	}); err != nil || len(again) != 1 || again[0] != 2 {
		t.Fatalf("after a failed enumeration: enumerated %v, %v; want only the failed sample", again, err)
	}

	q := c.problem([]byte("q"))
	func() {
		defer func() { _ = recover() }()
		c.sets(q, samples, func(inv.Sample) (journeySet, error) { panic("enumeration bug") })
	}()
	if _, err := c.sets(q, samples, fail); err != boom {
		t.Fatalf("a panicked enumeration must not stay in flight: %v", err)
	}
}

// TestJourneyCacheProblemEviction: a problem key evicted from the intern
// table comes back under a fresh id and enumerates its journeys again, and
// no id names two problems, so a problem never reads another's journeys.
func TestJourneyCacheProblemEviction(t *testing.T) {
	c := NewJourneyCache()
	one := []inv.Sample{{}}
	set := func(n int) func(inv.Sample) (journeySet, error) {
		return func(inv.Sample) (journeySet, error) { return journeySet{paths: [][]jpath{make([]jpath, n)}}, nil }
	}
	first := c.problem([]byte("p0"))
	if again := c.problem([]byte("p0")); again != first {
		t.Fatalf("interned twice: ids %d and %d", first.id, again.id)
	}
	if _, err := c.sets(first, one, set(1)); err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]string{first.id: "p0"}
	for i := range journeyProblemCap {
		key := fmt.Sprintf("q%d", i)
		pr := c.problem([]byte(key))
		if prev, ok := ids[pr.id]; ok {
			t.Fatalf("id %d names both %s and %s", pr.id, prev, key)
		}
		ids[pr.id] = key
		if _, err := c.sets(pr, one, set(0)); err != nil {
			t.Fatal(err)
		}
	}
	fresh := c.problem([]byte("p0"))
	if _, ok := ids[fresh.id]; ok {
		t.Fatalf("evicted p0 came back under id %d, which names %s", fresh.id, ids[fresh.id])
	}
	_, misses := c.Stats()
	got, err := c.sets(fresh, one, set(2))
	if _, m := c.Stats(); err != nil || m != misses+1 || len(got[0].paths[0]) != 2 {
		t.Fatalf("evicted p0 must enumerate again: %d misses, %v, %v", m-misses, got, err)
	}
}
