package encode

import (
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/topo"
)

// ConeFamilies and SharedMatchesPerClass serve the external
// TestSharedJourneysMatchPerClass, whose datacenter is planned by core,
// which imports this package.
var ConeFamilies = coneFamilies

// SharedMatchesPerClass checks that each choice of p's encoding, its
// events stamped as the encoding reads them, has the journeys of its own
// (sample, class assignment) walked alone: the same conds, sets and
// events, in order. It returns how many of p's samples are enumerated per
// class assignment and how many are enumerated once for all of them.
func SharedMatchesPerClass(t *testing.T, p *inv.Problem) (perClass, shared int) {
	t.Helper()
	e, err := NewSliceEncoding(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boxIdx := map[topo.NodeID]int{}
	for i, b := range p.Boxes {
		boxIdx[b.Node] = i
	}
	for ci := range e.choices {
		c := &e.choices[ci]
		want, _, err := journeys(p, boxIdx, nil, c.sample, c.classes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.paths) != len(want) {
			t.Fatalf("%s: choice %d has %d paths, its own walk %d", p.Invariant.Name(), ci, len(c.paths), len(want))
		}
		for pi, pth := range c.paths {
			events := make([]logic.Event, len(pth.events))
			for i, ev := range pth.events {
				events[i] = c.event(ev)
			}
			if w := want[pi]; !slices.Equal(pth.conds, w.conds) || !slices.Equal(pth.sets, w.sets) || !slices.Equal(events, w.events) {
				t.Fatalf("%s: choice %d (classes %b) path %d is not its own walk's:\n%+v\nwant\n%+v", p.Invariant.Name(), ci, c.classes, pi, pth, w)
			}
		}
		if c.classes == e.choices[0].classes {
			if c.shared {
				shared++
			} else {
				perClass++
			}
		}
	}
	return perClass, shared
}
