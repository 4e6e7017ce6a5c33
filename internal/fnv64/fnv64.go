// Package fnv64 is the allocation-free FNV-1a 64 hash. The explicit
// engine's visited set (internal/explore) pairs it with full-key
// comparison, so a collision costs work, never a wrong answer. The
// persisted configuration hash (internal/incr) keeps no full key: recovery
// re-verifies a sample of the restored verdicts against fresh solves
// instead. The slow-solve log shortens class keys with it.
package fnv64

// Sum returns the FNV-1a 64 hash of b.
func Sum(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
