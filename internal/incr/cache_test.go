package incr

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/lru"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/store"
)

func ck(i int) string {
	return string(binary.BigEndian.AppendUint64(nil, uint64(i)))
}

func line(i int, ren *slices.Renaming) cacheLine {
	return cacheLine{report: core.Report{Result: inv.Result{StatesExplored: i}}, ren: ren}
}

func newTestCache(cap int) *lru.Cache[string, cacheLine] { return lru.New[string, cacheLine](cap, nil) }

// TestVerdictCacheLRUKeepsHotEntries streams far more distinct
// fingerprints than the cache holds while re-touching a small hot set
// every step: the hot fingerprints must survive the sustained churn (the
// old flush-on-full policy dropped them at every overflow).
func TestVerdictCacheLRUKeepsHotEntries(t *testing.T) {
	const cap, hot, churn = 32, 4, 1000
	c := newTestCache(cap)
	for i := 0; i < hot; i++ {
		c.Put(ck(i), line(i, nil))
	}
	for i := 0; i < churn; i++ {
		for h := 0; h < hot; h++ {
			if _, ok := c.Get(ck(h)); !ok {
				t.Fatalf("hot fingerprint %d evicted at churn step %d", h, i)
			}
		}
		c.Put(ck(1000+i), line(i, nil))
		if c.Len() > cap {
			t.Fatalf("cache exceeded its bound: %d > %d", c.Len(), cap)
		}
	}
	for h := 0; h < hot; h++ {
		l, ok := c.Get(ck(h))
		if !ok {
			t.Fatalf("hot fingerprint %d missing after churn", h)
		}
		if l.report.Result.StatesExplored != h {
			t.Fatalf("hot fingerprint %d returned wrong report: %d", h, l.report.Result.StatesExplored)
		}
	}
	// The most recent cold keys are resident, the oldest are not.
	if _, ok := c.Get(ck(1000 + churn - 1)); !ok {
		t.Fatal("most recent insertion must be resident")
	}
	if _, ok := c.Get(ck(1000)); ok {
		t.Fatal("oldest cold insertion should have been evicted")
	}
}

// TestVerdictCacheUpdateInPlace: re-putting an existing key must replace
// the report without growing the cache.
func TestVerdictCacheUpdateInPlace(t *testing.T) {
	c := newTestCache(8)
	c.Put(ck(1), line(1, nil))
	c.Put(ck(1), line(2, nil))
	if c.Len() != 1 {
		t.Fatalf("duplicate put grew the cache: %d entries", c.Len())
	}
	l, ok := c.Get(ck(1))
	if !ok || l.report.Result.StatesExplored != 2 {
		t.Fatalf("update not visible: ok=%v report=%v", ok, l.report.Result.StatesExplored)
	}
}

// TestVerdictCacheRenamingSurvivesEviction: a canonical entry's stored
// producer renaming — the hook witness translation depends on — must ride
// through arbitrary eviction interleavings: a hot canonical entry keeps
// returning ITS renaming while cold entries around it are evicted, and an
// evicted canonical entry is gone renaming and all (a stale renaming
// served for a re-inserted key would mistranslate witnesses).
func TestVerdictCacheRenamingSurvivesEviction(t *testing.T) {
	const cap = 3
	c := newTestCache(cap)
	renA, renB := &slices.Renaming{}, &slices.Renaming{}
	c.Put(ck(100), line(100, renA)) // hot canonical entry
	c.Put(ck(101), line(101, renB)) // cold canonical entry
	for i := 0; i < 10; i++ {
		// Touch the hot entry, then insert a cold one — each insertion past
		// the cap evicts the least recently used entry.
		l, ok := c.Get(ck(100))
		if !ok || l.ren != renA {
			t.Fatalf("step %d: hot canonical entry lost its renaming: ok=%v ren=%p", i, ok, l.ren)
		}
		if l.report.Result.StatesExplored != 100 {
			t.Fatalf("step %d: hot entry returned wrong report", i)
		}
		c.Put(ck(200+i), line(i, nil))
	}
	if l, ok := c.Get(ck(100)); !ok || l.ren != renA {
		t.Fatalf("hot canonical entry must survive the churn with its renaming, ok=%v ren=%p", ok, l.ren)
	}
	if _, ok := c.Get(ck(101)); ok {
		t.Fatal("cold canonical entry should have been evicted")
	}
	// Re-inserting the evicted key with a DIFFERENT renaming must serve the
	// new one, never a stale survivor.
	renB2 := &slices.Renaming{}
	c.Put(ck(101), line(1, renB2))
	if l, ok := c.Get(ck(101)); !ok || l.ren != renB2 {
		t.Fatalf("re-inserted entry must carry its new renaming, ok=%v ren=%p", ok, l.ren)
	}
}

// TestVerdictCacheEvictionOrder: with no touches, eviction is insertion
// order (the least recently used end).
func TestVerdictCacheEvictionOrder(t *testing.T) {
	c := newTestCache(3)
	for i := 0; i < 3; i++ {
		c.Put(ck(i), line(i, nil))
	}
	c.Put(ck(3), line(3, nil)) // evicts 0
	if _, ok := c.Get(ck(0)); ok {
		t.Fatal("oldest entry must be evicted first")
	}
	for i := 1; i <= 3; i++ {
		if _, ok := c.Get(ck(i)); !ok {
			t.Fatalf("entry %d should be resident", i)
		}
	}
}

// TestAppliedIDsEvictOldest: past the cap, the oldest request ids are
// forgotten first and every newer one stays remembered — live, after a
// kill that leaves only the journal, and after Shutdown and reopen — and
// remembering one more id costs O(1), not a sort of the whole set.
func TestAppliedIDsEvictOldest(t *testing.T) {
	const capIDs, extra = 4096, 100
	dir := t.TempDir()
	open := func() *Session {
		t.Helper()
		d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
		s, _, err := NewSession(d.Net, core.Options{Engine: core.EngineSAT}, d.AllIsolationInvariants(),
			Options{Persist: &PersistOptions{Dir: dir, Sync: store.SyncNone, SnapshotEvery: -1}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	id := func(i int) string { return fmt.Sprintf("req-%d", i) }
	check := func(when string, s *Session) {
		t.Helper()
		for i := 0; i < capIDs+extra; i++ {
			if got, want := s.IsApplied(id(i)), i >= extra; got != want {
				t.Fatalf("%s: IsApplied(%s) = %v, want %v", when, id(i), got, want)
			}
		}
	}

	s := open()
	for i := 0; i < capIDs+extra; i++ {
		if _, dup, err := s.ApplyID(id(i), nil); err != nil || dup {
			t.Fatalf("ApplyID(%s): dup=%v err=%v", id(i), dup, err)
		}
	}
	check("live", s)
	// Killed: no Shutdown, so the ids live only in the journal.
	s = open()
	if !s.Recovery().Recovered {
		t.Fatalf("journal-only restart did not recover: %+v", s.Recovery())
	}
	check("after a kill", s)
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	s = open()
	check("after Shutdown and reopen", s)

	more := make([]string, 1000)
	for i := range more {
		more[i] = id(capIDs + extra + i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.mu.Lock()
	for _, x := range more {
		s.rememberID(x)
	}
	s.mu.Unlock()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("remembering %d ids past the cap allocated %d bytes", len(more), n)
	}
}
