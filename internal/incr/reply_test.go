package incr

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
)

// TestAppendJSONStringMatchesEncodingJSON: a member's quoted name renders
// byte for byte as encoding/json renders the string — HTML characters,
// quotes, backslashes, control characters, the JavaScript line separators
// and invalid UTF-8 included.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "t7-pub-reach", `a<b>&c`, `say "hi"`, `back\slash`, "line\u2028para\u2029",
		"bad\xffutf8\xc3", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "\ufffd real", "\u65e5\u672c ok", "\xed\xa0\x80",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("%q: got %s, want %s", s, got[1:], want)
		}
	}
}

// TestReplyEscapesAsEncodingJSON: invariant labels with characters
// encoding/json escapes render through the template path byte for byte as
// json.Encoder renders EncodeResult.
func TestReplyEscapesAsEncodingJSON(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()
	for i, label := range []string{`a<b&c>`, `say "hi" \ there`, "line\u2028sep\u2029", "bad\xffutf8\xc3"} {
		iso := invs[i].(inv.SimpleIsolation)
		iso.Label = label
		invs[i] = iso
	}
	s, _, err := NewSession(d.Net, core.Options{}, invs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(EncodeResult(d.Net.Topo, s.LastApply(), s.CurrentReports())); err != nil {
		t.Fatal(err)
	}
	if got := s.AppendResult(nil, "", false); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("spliced line differs\n--- got ---\n%s--- want ---\n%s", got, want.Bytes())
	}
}
