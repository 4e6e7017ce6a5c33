// Package fnv64 is the allocation-free FNV-1a 64 hash shared by the
// binary-fingerprint subsystems: the explicit engine's visited set
// (internal/explore) and the incremental verdict cache and persisted
// configuration hashes (internal/incr). Every
// consumer pairs the hash with full-key comparison, so collisions degrade
// to extra work, never wrong answers.
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
