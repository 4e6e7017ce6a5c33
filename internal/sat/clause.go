package sat

// cref is a clause's index in Solver.cls. A reason (or a conflict) is a
// cref, noClause for a decision or a unit, or binReason(l) for an
// implicit binary clause whose other, false literal is l.
type cref int32

// noClause is no clause record; a watcher with it is an implicit binary.
const noClause cref = -1

func binReason(l Lit) cref { return -2 - cref(l) }

// clause is a problem clause of three or more literals, or a learnt
// clause. The first two literal positions are the watched positions
// maintained by propagation. Learnt clauses carry an activity score used
// by reduceDB and an LBD ("glue") score used to protect high-quality
// clauses from deletion. deleted marks a clause for collect.
type clause struct {
	lits     []Lit
	activity float64
	lbd      int32
	learnt   bool
	deleted  bool
}

// watcher is an entry in a literal's watch list: the watching clause plus a
// "blocker" literal whose satisfaction lets propagation skip the clause
// without touching its memory. A binary problem clause is only its two
// watchers (cref noClause), each one's blocker the other literal. No
// pointer: the GC does not scan watch storage.
type watcher struct {
	cref    cref
	blocker Lit
}

// varOrder is a max-heap of variables keyed by VSIDS activity. It supports
// lazy removal: popped variables that are already assigned are skipped by
// the caller. indices[v] is the heap position of v, or -1 when absent.
type varOrder struct {
	heap     []Var
	indices  []int32
	activity *[]float64
}

func newVarOrder(activity *[]float64) *varOrder {
	return &varOrder{activity: activity}
}

func (o *varOrder) contains(v Var) bool { return o.indices[v] >= 0 }

func (o *varOrder) less(i, j int) bool {
	a := *o.activity
	return a[o.heap[i]] > a[o.heap[j]]
}

func (o *varOrder) swap(i, j int) {
	o.heap[i], o.heap[j] = o.heap[j], o.heap[i]
	o.indices[o.heap[i]] = int32(i)
	o.indices[o.heap[j]] = int32(j)
}

func (o *varOrder) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !o.less(i, p) {
			break
		}
		o.swap(i, p)
		i = p
	}
}

func (o *varOrder) down(i int) {
	n := len(o.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && o.less(l, smallest) {
			smallest = l
		}
		if r < n && o.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		o.swap(i, smallest)
		i = smallest
	}
}

func (o *varOrder) push(v Var) {
	if o.contains(v) {
		return
	}
	o.heap = append(o.heap, v)
	o.indices[v] = int32(len(o.heap) - 1)
	o.up(len(o.heap) - 1)
}

func (o *varOrder) pop() Var {
	v := o.heap[0]
	last := len(o.heap) - 1
	o.swap(0, last)
	o.heap = o.heap[:last]
	o.indices[v] = -1
	if last > 0 {
		o.down(0)
	}
	return v
}

func (o *varOrder) empty() bool { return len(o.heap) == 0 }

// bump restores heap order after v's activity increased.
func (o *varOrder) bump(v Var) {
	if o.contains(v) {
		o.up(int(o.indices[v]))
	}
}
