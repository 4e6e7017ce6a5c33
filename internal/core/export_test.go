package core

// EncKey exposes the planned check's canonical encoding key to
// TestKeysByteIdentical.
func (cp *CheckPlan) EncKey() []byte { return cp.p.encKey }
