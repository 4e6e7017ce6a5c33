package incr

// Result lines. Every reply lists every report, so a verdict is rendered
// once and spliced: per group record, a template of its entry's reports
// without their invariant, its members' quoted names, and the fragment
// joined from the two (DESIGN.md, "Replies").

import (
	"bytes"
	"encoding/json"
	"strings"
	"unicode/utf8"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/topo"
)

// template is a group entry's reports rendered for one scenario
// generation, per scenario and from the byte after `"invariant":<name>`
// on: rows[0] the representative's, rows[1] a member's (reused, duration
// 0). unsat counts a member's unsatisfied reports. Immutable.
type template struct {
	entry   *groupEntry
	scenGen uint64
	rows    [2][][]byte
	unsat   int
}

// AppendResult appends the current result line to buf: byte for byte
// json.Encoder's line for EncodeResult(topology, LastApply(), reports) of
// the current reports, id and duplicate set. A duplicate did no work: its
// change, dirty, cache and canon counters and duration read 0.
func (s *Session) AppendResult(buf []byte, id string, duplicate bool) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendResult(buf, id, duplicate)
}

// appendResult is AppendResult under s.mu.
func (s *Session) appendResult(buf []byte, id string, duplicate bool) []byte {
	stats := s.last
	if duplicate {
		stats = ApplyStats{Seq: stats.Seq, Invariants: stats.Invariants, Groups: stats.Groups, BudgetExceeded: stats.BudgetExceeded}
	}
	res := EncodeResult(s.net.Topo, stats, nil)
	res.Id, res.Duplicate = id, duplicate
	return s.splice(buf, &res, &res)
}

// reportsHole is the report list of a result marshalled without reports.
var reportsHole = []byte(`"reports":null`)

// splice appends head's line (a result, or a propose line with its result
// last) with the groups' fragments in place of res's nil report list, and
// fills in res's unsatisfied tally. A stale template is rendered anew (on
// the trail, when one is armed), a missing fragment joined anew — but
// written straight into the line from a pending shadow's table (a trail is
// armed), which is read once. With no shadow pending either, no trail
// holds a fragment's buffer, and a re-join writes over it. The bytes
// cannot pass through a json.Marshaler: encoding/json re-validates and
// compacts its output.
func (s *Session) splice(buf []byte, head any, res *WireResult) []byte {
	t, keep := s.table, s.trail == nil
	reuse := keep && s.pending == nil
	var scens []topo.FailureScenario
	for _, sl := range t.order {
		r := &t.recs[sl]
		if tp := r.tmpl; tp == nil || tp.entry != r.entry || tp.scenGen != s.scenGen {
			if scens == nil {
				scens = s.effectiveScenarios()
			}
			set(s.trail, &r.tmpl, s.newTemplate(r, scens))
			set(s.trail, &r.frag, r.frag[:0])
		}
		if len(r.frag) == 0 && keep {
			set(s.trail, &r.frag, r.join(reuse))
		}
		res.Unsatisfied += r.tmpl.unsat * len(r.members)
	}
	b, _ := json.Marshal(head) // strings, integers and booleans only
	i := bytes.Index(b, reportsHole) + len(`"reports":`)
	buf = append(buf, b[:i]...)
	if len(t.order) > 0 { // no report leaves the list null, as EncodeResult does
		sep := byte('[')
		for _, sl := range t.order {
			if r := &t.recs[sl]; len(r.frag) > 0 {
				buf = append(append(buf, sep), r.frag...)
			} else {
				buf = r.appendReports(append(buf, sep))
			}
			sep = ','
		}
		buf = append(buf, ']')
		i += len("null")
	}
	return append(append(buf, b[i:]...), '\n')
}

// invariantHole is the head of a report rendered with an empty invariant.
const invariantHole = `{"invariant":""`

// newTemplate renders the template of r's entry under scens.
func (s *Session) newTemplate(r *groupRecord, scens []topo.FailureScenario) *template {
	e := r.entry
	tp := &template{entry: e, scenGen: s.scenGen}
	reps := make([]core.Report, 0, 2*len(e.reports))
	for _, reused := range []bool{false, true} {
		for si, rep := range e.reports {
			rep.Invariant, rep.Scenario = r.members[0].inv, scens[si]
			if reused {
				rep.Reused, rep.Duration = true, 0
			} else if !rep.Satisfied {
				tp.unsat++
			}
			reps = append(reps, rep)
		}
	}
	for i, wr := range EncodeResult(s.net.Topo, ApplyStats{}, reps).Reports {
		wr.Invariant = ""
		b, _ := json.Marshal(&wr) // strings, integers and booleans only
		tp.rows[i/len(e.reports)] = append(tp.rows[i/len(e.reports)], b[len(invariantHole):])
	}
	return tp
}

// join renders r's fragment — the comma-joined wire JSON of its reports
// in assemble order — over the old buffer when reuse and it fits with at
// most size to spare, else into a fresh one with a quarter to spare: a
// member that moves out and back in costs no allocation, nor does a
// scenario that every row gains and loses again (~13 % of a row).
func (r *groupRecord) join(reuse bool) []byte {
	size := 0
	for mi, m := range r.members {
		for _, rep := range r.tmpl.rows[min(mi, 1)] {
			size += len(m.quoted()) + len(rep) + 1
		}
	}
	if !reuse || cap(r.frag) < size || cap(r.frag) > 2*size {
		return r.appendReports(make([]byte, 0, size+size/4))
	}
	return r.appendReports(r.frag[:0])
}

// appendReports appends r's fragment to b: per member its quoted name and
// its template rows, the representative told apart by position.
func (r *groupRecord) appendReports(b []byte) []byte {
	sep := false
	for mi, m := range r.members {
		for _, rep := range r.tmpl.rows[min(mi, 1)] {
			if sep {
				b = append(b, ',')
			}
			b, sep = append(append(b, m.quoted()...), rep...), true
		}
	}
	return b
}

// quoted returns `{"invariant":<quoted name>`, rendered on first need and
// kept: a membership move re-joins a fragment without re-quoting it.
func (m *member) quoted() []byte {
	if m.name == nil {
		m.name = appendJSONString([]byte(invariantHole[:len(invariantHole)-2]), m.inv.Name())
	}
	return m.name
}

// appendJSONString appends str quoted as encoding/json quotes a string:
// '"', '\\' and control characters escaped, '<', '>', '&', U+2028 and
// U+2029 escaped as \uXXXX, and each byte of invalid UTF-8 replaced by
// U+FFFD.
func appendJSONString(b []byte, str string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(str); {
		if c := str[i]; c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(str[i:])
		if r >= utf8.RuneSelf && r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, str[start:i]...)
		switch k := strings.IndexRune("\b\f\n\r\t", r); {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case k >= 0:
			b = append(b, '\\', "bfnrt"[k])
		case r == utf8.RuneError:
			b = append(b, `\ufffd`...)
		default:
			b = append(b, '\\', 'u', hex[r>>12], hex[r>>8&15], hex[r>>4&15], hex[r&15])
		}
		i += size
		start = i
	}
	return append(append(b, str[start:]...), '"')
}
