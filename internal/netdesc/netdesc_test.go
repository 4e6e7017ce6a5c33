package netdesc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/core"
)

// generators returns the small configurations every structural test runs
// over: one description per generator family.
func generators() map[string]*Desc {
	return map[string]*Desc{
		"fattree": FatTree(4, 2),
		"isp":     ISPBackbone(ISPBackboneConfig{Peerings: 2, Subnets: 3}),
		// Past 256 subnets the addressing carries into a second /8 block
		// (the generator used to emit 10.256.0.0/16 here).
		"isp-wide": ISPBackbone(ISPBackboneConfig{Peerings: 2, Subnets: 258}),
		"vpc":      CloudVPC(VPCConfig{Tenants: 4, Shapes: 2, Peerings: 1, CrossChecks: 2}),
	}
}

// TestGoldenRoundTrip pins the canonical-serialization contract: encode →
// decode → encode is byte-identical for every generated description.
func TestGoldenRoundTrip(t *testing.T) {
	for name, d := range generators() {
		t.Run(name, func(t *testing.T) {
			first, err := Encode(d)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Decode(first, name+".json")
			if err != nil {
				t.Fatalf("decoding canonical output: %v", err)
			}
			second, err := Encode(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("round-trip not byte-identical (%d vs %d bytes)", len(first), len(second))
			}
		})
	}
}

// TestGeneratorsVerify builds and verifies every generated description
// end to end and checks each invariant lands on its expected side.
func TestGeneratorsVerify(t *testing.T) {
	for name, d := range generators() {
		t.Run(name, func(t *testing.T) {
			net, invs, err := Build(d, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(invs) == 0 {
				t.Fatal("no invariants generated")
			}
			v, err := core.NewVerifier(net, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			reports, err := v.VerifyAll(invs, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reports {
				if !r.Satisfied {
					t.Errorf("%s: outcome %v does not satisfy the invariant's expectation",
						r.Invariant.Name(), r.Result.Outcome)
				}
			}
		})
	}
}

// TestVPCScalesWithShapesNotTenants is the tentpole's scaling claim in
// miniature: tripling the tenant count at a fixed shape count must not
// change the number of canonical solve classes — every added tenant's
// checks ride an existing shape representative.
func TestVPCScalesWithShapesNotTenants(t *testing.T) {
	classesAt := func(tenants int) int64 {
		d := CloudVPC(VPCConfig{Tenants: tenants, Shapes: 3})
		net, invs, err := Build(d, "")
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.NewVerifier(net, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.VerifyAll(invs, true); err != nil {
			t.Fatal(err)
		}
		classes, _, _ := v.CanonStats()
		return classes
	}
	small, large := classesAt(6), classesAt(18)
	if small != large {
		t.Fatalf("canonical classes grew with tenant count: %d tenants -> %d classes, %d tenants -> %d classes",
			6, small, 18, large)
	}
}

// TestDecodeErrors pins the structured-error contract on malformed and
// adversarial inputs: a *Error naming the offending field (or line),
// never a panic, never a partially decoded description.
func TestDecodeErrors(t *testing.T) {
	valid := FatTree(4, 1)
	validBytes, err := Encode(valid)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		doc   string
		field string // expected Error.Field substring ("" = any)
		line  bool   // expect a line number
	}{
		{"syntax", "{\n  \"format\": ,\n}", "", true},
		{"truncated", string(validBytes[:len(validBytes)/2]), "", false},
		{"empty", "", "", false},
		{"not-an-object", "[1,2,3]", "", false},
		{"unknown-field", `{"format":"vmn-topology/1","name":"x","frobnicate":1}`, "frobnicate", false},
		{"bad-format", `{"format":"vmn-topology/99","name":"x","nodes":[],"links":[],"fib":{}}`, "format", false},
		{"no-name", `{"format":"vmn-topology/1","name":"","nodes":[],"links":[],"fib":{}}`, "name", false},
		{"no-nodes", `{"format":"vmn-topology/1","name":"x","nodes":[],"links":[],"fib":{}}`, "nodes", false},
		{"dup-node", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"switch"},{"name":"a","kind":"switch"}],"links":[],"fib":{}}`, "nodes[1].name", false},
		{"bad-kind", `{"format":"vmn-topology/1","name":"x","nodes":[{"name":"a","kind":"router"}],"links":[],"fib":{}}`, "nodes[0].kind", false},
		{"host-no-addr", `{"format":"vmn-topology/1","name":"x","nodes":[{"name":"a","kind":"host"}],"links":[],"fib":{}}`, "nodes[0].addr", false},
		{"host-bad-addr", `{"format":"vmn-topology/1","name":"x","nodes":[{"name":"a","kind":"host","addr":"10.0.0.256"}],"links":[],"fib":{}}`, "nodes[0].addr", false},
		{"dup-addr", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"host","addr":"10.0.0.1"},{"name":"b","kind":"host","addr":"10.0.0.1"}],
			"links":[["a","b"]],"fib":{}}`, "nodes[1].addr", false},
		{"mb-no-box", `{"format":"vmn-topology/1","name":"x","nodes":[{"name":"a","kind":"middlebox"}],"links":[],"fib":{}}`, "nodes[0].box", false},
		{"box-bad-type", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"middlebox","box":{"type":"quantum"}}],"links":[],"fib":{}}`, "nodes[0].box.type", false},
		{"box-wrong-field", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"middlebox","box":{"type":"nat","addr":"1.2.3.4","vip":"5.6.7.8"}}],"links":[],"fib":{}}`, "nodes[0].box.vip", false},
		{"self-link", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"switch"},{"name":"b","kind":"switch"}],"links":[["a","a"],["a","b"]],"fib":{}}`, "links[0]", false},
		{"dup-link", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"switch"},{"name":"b","kind":"switch"}],"links":[["a","b"],["b","a"]],"fib":{}}`, "links[1]", false},
		{"dangling-link", `{"format":"vmn-topology/1","name":"x","nodes":[{"name":"a","kind":"switch"}],"links":[["a","zz"]],"fib":{}}`, "links[0]", false},
		{"unlinked-node", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"switch"},{"name":"b","kind":"switch"}],"links":[],"fib":{}}`, "nodes[0]", false},
		{"disconnected", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"switch"},{"name":"b","kind":"switch"},
			{"name":"c","kind":"switch"},{"name":"d","kind":"switch"}],
			"links":[["a","b"],["c","d"]],"fib":{}}`, "links", false},
		{"fib-unknown-node", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"switch"},{"name":"b","kind":"switch"}],"links":[["a","b"]],
			"fib":{"zz":[{"match":"*","out":"a","priority":1}]}}`, "fib.zz", false},
		{"fib-bad-out", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"switch"},{"name":"b","kind":"switch"},{"name":"c","kind":"switch"}],
			"links":[["a","b"],["b","c"]],
			"fib":{"a":[{"match":"*","out":"c","priority":1}]}}`, "fib.a[0].out", false},
		{"inv-bad-type", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"host","addr":"10.0.0.1"},{"name":"b","kind":"switch"}],"links":[["a","b"]],
			"fib":{},"invariants":[{"type":"teleportation","dst":"a"}]}`, "invariants[0].type", false},
		{"inv-bad-addr", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"host","addr":"10.0.0.1"},{"name":"b","kind":"switch"}],"links":[["a","b"]],
			"fib":{},"invariants":[{"type":"reachability","dst":"a","src_addr":"nope"}]}`, "invariants[0].src_addr", false},
		{"traversal-via-host", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"host","addr":"10.0.0.1"},{"name":"b","kind":"host","addr":"10.0.0.2"}],
			"links":[["a","b"]],"fib":{},
			"invariants":[{"type":"traversal","dst":"a","src_prefix":"*","vias":["b"]}]}`, "invariants[0].vias[0]", false},
		// An unlabeled node's class is named node-<id>; a declared class can
		// take neither that form nor a signature's field separator.
		{"class-unlabeled-form", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"host","addr":"10.0.0.1","class":"node-1"},{"name":"b","kind":"host","addr":"10.0.0.2"}],
			"links":[["a","b"]],"fib":{}}`, "nodes[0].class", false},
		{"class-separator", `{"format":"vmn-topology/1","name":"x","nodes":[
			{"name":"a","kind":"host","addr":"10.0.0.1"},{"name":"b","kind":"host","addr":"10.0.0.2","class":"web|db"}],
			"links":[["a","b"]],"fib":{}}`, "nodes[1].class", false},
		{"too-many-classes", tooManyClassesDoc, "classes[64]", false},
		{"appfirewall-undeclared-classes", undeclaredBlockedDoc, "nodes[1].box.blocked[0]", false},
		{"mdl-non-integral-config", mdlFractionDoc, "nodes[1].box.config", false},
	}
	check := func(t *testing.T, err error, file string, field string, line bool) {
		t.Helper()
		de, ok := err.(*Error)
		if !ok {
			t.Fatalf("error is %T, want *Error: %v", err, err)
		}
		if de.File != file {
			t.Errorf("error does not carry the file %s: %v", file, de)
		}
		if field != "" && !strings.Contains(de.Field, field) {
			t.Errorf("error field %q does not name %q (%v)", de.Field, field, de)
		}
		if line && de.Line == 0 {
			t.Errorf("syntax error lost its line number: %v", de)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Decode([]byte(tc.doc), "test.json")
			if err == nil {
				t.Fatal("malformed input decoded without error")
			}
			if d != nil {
				t.Fatal("error decode returned a partial description")
			}
			check(t, err, "test.json", tc.field, tc.line)
			// BuildFile checks a file only through Build: it must refuse the
			// same document on the same field.
			path := filepath.Join(t.TempDir(), "test.json")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			d, net, invs, err := BuildFile(path)
			if err == nil {
				t.Fatal("BuildFile built a malformed file")
			}
			if d != nil || net != nil || invs != nil {
				t.Fatal("BuildFile returned a partial result")
			}
			check(t, err, path, tc.field, tc.line)
		})
	}
}

// Documents the two validators once let through to Build. Each is also a
// FuzzDecodeTopology seed.
var (
	// 65 declared classes: one more than a class set holds.
	tooManyClassesDoc = `{"format":"vmn-topology/1","name":"x","classes":[` + classList(65) + `],
		"nodes":[{"name":"a","kind":"switch"}],"links":[],"fib":{}}`
	// An appfirewall blocking 80 classes the description never declares.
	undeclaredBlockedDoc = `{"format":"vmn-topology/1","name":"x","nodes":[
		{"name":"a","kind":"switch"},
		{"name":"f","kind":"middlebox","box":{"type":"appfirewall","blocked":[` + classList(80) + `]}}],
		"links":[["a","f"]],"fib":{}}`
	// An mdl config value no model parameter can take.
	mdlFractionDoc = `{"format":"vmn-topology/1","name":"x","nodes":[
		{"name":"a","kind":"switch"},
		{"name":"m","kind":"middlebox","box":{"type":"mdl","bundle":"m.mdl","config":{"acl":1.5}}}],
		"links":[["a","m"]],"fib":{}}`
	// Two tables with a bad egress each, owned by the first and the last node.
	twoBadFIBOwnersDoc = `{"format":"vmn-topology/1","name":"x","nodes":[
		{"name":"a","kind":"switch"},{"name":"b","kind":"switch"},{"name":"c","kind":"switch"}],
		"links":[["a","b"],["b","c"]],
		"fib":{"a":[{"match":"*","out":"c","priority":1}],"c":[{"match":"*","out":"a","priority":1}]}}`
)

func classList(n int) string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%q", fmt.Sprintf("c%d", i))
	}
	return strings.Join(names, ",")
}

// TestDecodeErrorsDeterministic decodes a document with two bad FIB
// tables many times: tables are checked in node order, so every decode
// names the first owner's rule.
func TestDecodeErrorsDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		_, err := Decode([]byte(twoBadFIBOwnersDoc), "test.json")
		de, ok := err.(*Error)
		if !ok {
			t.Fatalf("decode %d: error is %T, want *Error: %v", i, err, err)
		}
		if de.Field != "fib.a[0].out" {
			t.Fatalf("decode %d: error names %q, want fib.a[0].out (%v)", i, de.Field, de)
		}
	}
}

// TestErrorRendering pins the file:line: field: message format.
func TestErrorRendering(t *testing.T) {
	e := &Error{File: "net.json", Line: 7, Field: "nodes[1].addr", Msg: "boom"}
	if got, want := e.Error(), "net.json:7: nodes[1].addr: boom"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	e2 := &Error{Msg: "boom"}
	if got := e2.Error(); got != "boom" {
		t.Fatalf("got %q", got)
	}
}

// TestBuildNeverPanics feeds Build structurally valid but semantically
// hostile descriptions plus every decode-rejected case, asserting errors
// come back as values.
func TestBuildNeverPanics(t *testing.T) {
	d := &Desc{Format: Format, Name: "x",
		Nodes: []Node{
			{Name: "a", Kind: "middlebox", Box: &Box{Type: "mdl", Bundle: "no-such-file.mdl"}},
			{Name: "b", Kind: "host", Addr: "10.0.0.1"},
		},
		Links: [][2]string{{"a", "b"}},
		FIB:   map[string][]Rule{},
	}
	if _, _, err := Build(d, t.TempDir()); err == nil {
		t.Fatal("missing MDL bundle must fail the build")
	}
}

// FuzzDecodeTopology asserts the decoder never panics and never returns
// a partial description, whatever the input; valid descriptions must
// also build without panicking.
func FuzzDecodeTopology(f *testing.F) {
	for _, d := range generators() {
		data, err := Encode(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"format":"vmn-topology/1"`))
	f.Add([]byte(`{"format":"vmn-topology/1","name":"x","nodes":[{"name":"a","kind":"host","addr":"10.0.0.1"}],"links":[],"fib":{}}`))
	f.Add([]byte("null"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	for _, doc := range []string{tooManyClassesDoc, undeclaredBlockedDoc, mdlFractionDoc, twoBadFIBOwnersDoc} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data, "fuzz.json")
		if err != nil {
			if d != nil {
				t.Fatal("error decode returned a partial description")
			}
			if _, ok := err.(*Error); !ok {
				t.Fatalf("decode error is %T, want *Error", err)
			}
		}
		// Build, with no Validate first, is all that stands between a file
		// and the daemon: on the strict-JSON decode it must fail exactly
		// when Decode fails, on the same field. Only an mdl box may fail it
		// past Decode: its bundle is a file (none exists here).
		raw, jerr := decodeJSON(data, "fuzz.json")
		if jerr != nil {
			if err == nil {
				t.Fatalf("strict JSON refused what Decode accepted: %v", jerr)
			}
			return
		}
		_, _, berr := Build(raw, t.TempDir())
		if berr == nil {
			if err != nil {
				t.Fatalf("Build accepted what Decode refused: %v", err)
			}
			return
		}
		be, ok := berr.(*Error)
		if !ok {
			t.Fatalf("build error is %T, want *Error", berr)
		}
		if err != nil {
			if de := err.(*Error); de.Field != be.Field || de.Msg != be.Msg {
				t.Fatalf("Decode and Build disagree: %v vs %v", de, be)
			}
			return
		}
		var i int
		if _, serr := fmt.Sscanf(be.Field, "nodes[%d].box", &i); serr != nil || raw.Nodes[i].Box.Type != "mdl" {
			t.Fatalf("Build refused a decoded description outside an mdl box: %v", be)
		}
	})
}
