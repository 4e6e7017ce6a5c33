package lru

import (
	"slices"
	"testing"
)

type kv struct {
	k, v   int
	pinned bool
}

// model is the reference: a plain slice ordered least to most recently
// used, evicting by scanning from the front.
type model struct {
	capacity int
	ents     []kv
	evicted  []kv
}

func (m *model) find(k int) int {
	return slices.IndexFunc(m.ents, func(e kv) bool { return e.k == k })
}

func (m *model) touch(i int) {
	e := m.ents[i]
	m.ents = append(slices.Delete(m.ents, i, i+1), e)
}

func (m *model) trim(n int) {
	for i := 0; len(m.ents) > n && i < len(m.ents); {
		if m.ents[i].pinned {
			i++
			continue
		}
		m.evicted = append(m.evicted, kv{k: m.ents[i].k, v: m.ents[i].v})
		m.ents = slices.Delete(m.ents, i, i+1)
	}
}

// FuzzLRU drives get/peek/put/pin/unpin from bytes against the model and
// checks, after every op, the contents and their oldest-first order, the
// capacity bound and the eviction callback.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{2, 2, 0, 2, 1, 2, 2, 0, 0, 2, 3, 1, 4})
	f.Add([]byte{1, 3, 0, 2, 1, 2, 2, 4, 0, 3, 1, 2, 4, 3, 0})
	f.Add([]byte{3, 2, 0, 2, 1, 2, 2, 2, 3, 3, 0, 3, 1, 3, 2, 2, 4, 4, 0, 4, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		m := &model{capacity: 1 + int(ops[0])%4}
		var evicted []kv
		c := New(m.capacity, func(k, v int) { evicted = append(evicted, kv{k: k, v: v}) })
		for step, i := 0, 1; i+1 < len(ops); step, i = step+1, i+2 {
			op, k := ops[i]%6, int(ops[i+1]%8)
			at := m.find(k)
			switch op {
			case 0, 1: // get, peek
				var v int
				var ok bool
				if op == 0 {
					v, ok = c.Get(k)
				} else {
					v, ok = c.Peek(k)
				}
				if ok != (at >= 0) || (ok && v != m.ents[at].v) {
					t.Fatalf("step %d: lookup %d = (%d, %v), model holds %v", step, k, v, ok, m.ents)
				}
				if ok && op == 0 {
					m.touch(at)
				}
			case 2, 3: // put
				c.Put(k, step)
				if at >= 0 {
					m.ents[at].v = step
					m.touch(at)
				} else {
					m.trim(m.capacity - 1)
					m.ents = append(m.ents, kv{k: k, v: step})
				}
			case 4, 5: // pin, unpin
				c.Pin(k, op == 4)
				if at >= 0 {
					m.ents[at].pinned = op == 4
					m.trim(m.capacity)
				}
			}

			var got []kv
			c.Walk(func(k, v int) bool {
				got = append(got, kv{k: k, v: v})
				return true
			})
			want := make([]kv, len(m.ents))
			pinned := 0
			for j, e := range m.ents {
				want[j] = kv{k: e.k, v: e.v}
				if e.pinned {
					pinned++
				}
			}
			if !slices.Equal(got, want) || c.Len() != len(want) {
				t.Fatalf("step %d: cache holds %v (len %d), model %v", step, got, c.Len(), want)
			}
			// Past capacity only when every entry but one new arrival is
			// pinned: the arrival is kept rather than dropped on insertion.
			if c.Len() > max(m.capacity, pinned+1) {
				t.Fatalf("step %d: %d entries, capacity %d, %d pinned", step, c.Len(), m.capacity, pinned)
			}
			if !slices.Equal(evicted, m.evicted) {
				t.Fatalf("step %d: evicted %v, model evicted %v", step, evicted, m.evicted)
			}
		}
	})
}

// TestWalkStops: a walk ends at the first false.
func TestWalkStops(t *testing.T) {
	c := New[int, int](4, nil)
	for i := 0; i < 4; i++ {
		c.Put(i, i)
	}
	var seen []int
	c.Walk(func(k, _ int) bool {
		seen = append(seen, k)
		return k < 1
	})
	if !slices.Equal(seen, []int{0, 1}) {
		t.Fatalf("walk visited %v, want [0 1]", seen)
	}
}
