package core

import "github.com/netverify/vmn/internal/inv"

// EncKey and Problem expose the planned check's canonical encoding key and
// assembled problem to TestKeysByteIdentical.
func (cp *CheckPlan) EncKey() []byte { return cp.p.encKey }

func (cp *CheckPlan) Problem() *inv.Problem { return cp.p.prob }
