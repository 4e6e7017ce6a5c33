package incr

import "github.com/netverify/vmn/internal/tf"

// HeldEngines exposes the per-scenario engines the session holds between
// Applys, so tests can pin which state transitions replace them.
func (s *Session) HeldEngines() []*tf.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engs
}
