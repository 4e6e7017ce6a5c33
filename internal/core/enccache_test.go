package core

import (
	"fmt"
	"testing"

	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
)

// lruVerifier builds a verifier for white-box encoding-cache tests.
func lruVerifier(t *testing.T) *Verifier {
	t.Helper()
	aA, aB := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	net, _, _, _ := pairNet(mbox.NewLearningFirewall("fw",
		mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB))))
	v, err := NewVerifier(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// encSlotT is encSlotFor without the hit flag, for test brevity.
func (v *Verifier) encSlotT(key string) *encSlot {
	slot, _ := v.encSlotFor(key)
	return slot
}

// encDone completes the build of key's slot the way buildSlot does.
func (v *Verifier) encDone(key string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.encodings.Pin(key, false)
}

func (v *Verifier) encHas(key string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.encodings.Peek(key)
	return ok
}

func (v *Verifier) encLen() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.encodings.Len()
}

// TestEncodingCacheLRUEvictionOrder pins the eviction policy that replaced
// flush-on-full: overflowing evicts the least recently USED slot, so warm
// solver state that keeps answering survives scenario churn.
func TestEncodingCacheLRUEvictionOrder(t *testing.T) {
	v := lruVerifier(t)
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := 0; i < encodingCacheCap; i++ {
		v.encSlotT(key(i))
		v.encDone(key(i))
	}
	// Touch the oldest entry: it becomes most recently used.
	v.encSlotT(key(0))
	// Overflow: the victim must be k1 (now least recently used), not k0.
	v.encSlotT("hot-survivor")
	v.encDone("hot-survivor")
	if !v.encHas(key(0)) {
		t.Fatal("recently touched slot was evicted")
	}
	if v.encHas(key(1)) {
		t.Fatal("least recently used slot must be evicted first")
	}
	// Sustained churn: the hot key is re-touched before every insertion
	// and must stay resident throughout (the old flush-on-full policy
	// dropped it at every overflow).
	for i := 0; i < 4*encodingCacheCap; i++ {
		v.encSlotT(key(0))
		v.encSlotT(fmt.Sprintf("churn%d", i))
		v.encDone(fmt.Sprintf("churn%d", i))
		if !v.encHas(key(0)) {
			t.Fatalf("hot encoding evicted at churn step %d", i)
		}
	}
	if n := v.encLen(); n > encodingCacheCap {
		t.Fatalf("cache exceeded its bound: %d > %d", n, encodingCacheCap)
	}
	hits, misses := v.EncodingCacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats not accounted: hits=%d misses=%d", hits, misses)
	}
}

// TestEncodingCacheLRUPinsInFlightBuilds: slots whose construction has not
// completed are never evicted — a concurrent request for the same key must
// find the slot and share the build rather than start a duplicate.
func TestEncodingCacheLRUPinsInFlightBuilds(t *testing.T) {
	v := lruVerifier(t)
	for i := 0; i < encodingCacheCap; i++ {
		v.encSlotT(fmt.Sprintf("inflight%d", i)) // done never set
	}
	v.encSlotT("overflow")
	for i := 0; i < encodingCacheCap; i++ {
		if !v.encHas(fmt.Sprintf("inflight%d", i)) {
			t.Fatalf("in-flight slot %d was evicted", i)
		}
	}
	if n := v.encLen(); n != encodingCacheCap+1 {
		t.Fatalf("cache should exceed its cap rather than drop an in-flight build: %d", n)
	}
	// Once builds complete, the cap is enforced again.
	for i := 0; i < encodingCacheCap; i++ {
		v.encDone(fmt.Sprintf("inflight%d", i))
	}
	v.encDone("overflow")
	v.encSlotT("post")
	if n := v.encLen(); n > encodingCacheCap {
		t.Fatalf("cap not enforced after builds completed: %d", n)
	}
}
