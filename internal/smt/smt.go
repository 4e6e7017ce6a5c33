// Package smt is the boolean formula layer between VMN's encoder and
// internal/sat. It plays the role Z3's front end plays in the paper: the
// encoder grounds the (decidable) middlebox and network axioms over a
// slice into a quantifier-free propositional formula, which this package
// hash-conses and converts to CNF with a Tseitin transformation.
//
// Formulas are interned: structurally identical And/Or/Not nodes share one
// FormID, so a subformula the encoder builds twice (the same path guard at
// one step, the same grounded atom) gets one Tseitin gate. Top-level
// conjunctions and disjunctions of asserted formulas become plain clauses
// without a gate, and AssertGuarded asserts a formula under an activation
// literal that ReleaseGuard later retires.
package smt

import (
	"github.com/netverify/vmn/internal/sat"
)

// Ctx owns formulas and the underlying SAT solver. It is not safe for
// concurrent use.
type Ctx struct {
	solver *sat.Solver
	bools  map[string]sat.Var // BoolVar's named atoms

	forms     []formNode
	formCache map[string]FormID // And/Or/Not nodes by kind and children
	atoms     []FormID          // atom node per SAT literal; 0 if not made
	gateLits  []sat.Lit         // Tseitin literal per form node; litNone if not made
	constLits [2]sat.Lit        // the fixed false/true literals; litNone if not made
	kids      []FormID          // children of interned nodes, node after node
	sigBuf    []byte            // scratch for formCache keys
	naryBuf   []FormID          // scratch for mkNary child collection
	litStk    []sat.Lit         // stack of clause literals under construction
}

const litNone sat.Lit = -2

// NewCtx creates an empty context backed by a fresh SAT solver.
func NewCtx() *Ctx {
	c := &Ctx{
		solver:    sat.New(),
		formCache: map[string]FormID{},
		constLits: [2]sat.Lit{litNone, litNone},
	}
	// Reserve form IDs 0/1 for false/true.
	c.forms = append(c.forms, formNode{kind: formFalse}, formNode{kind: formTrue})
	c.gateLits = append(c.gateLits, litNone, litNone)
	return c
}

// Solver exposes the underlying SAT solver (for budgets and stats).
func (c *Ctx) Solver() *sat.Solver { return c.solver }

// BoolVar returns a boolean atom with the given name, creating it on first
// use. The same name always maps to the same atom.
func (c *Ctx) BoolVar(name string) Form {
	v, ok := c.bools[name]
	if !ok {
		if c.bools == nil {
			c.bools = map[string]sat.Var{}
		}
		v = c.solver.NewVar()
		c.bools[name] = v
	}
	return c.atomLit(sat.PosLit(v))
}

// FreshBool returns a new anonymous boolean atom.
func (c *Ctx) FreshBool() Form {
	return c.atomLit(sat.PosLit(c.solver.NewVar()))
}
