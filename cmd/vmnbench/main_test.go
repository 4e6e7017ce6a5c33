package main

import (
	"strings"
	"testing"
)

func TestSelectFigures(t *testing.T) {
	names := func(sel []figure) string {
		var out []string
		for _, f := range sel {
			out = append(out, f.name)
		}
		return strings.Join(out, ",")
	}
	for arg, want := range map[string]string{
		"all":          "2,3,4,5,7,8,9b,9c,explicit",
		"explicit, 2":  "2,explicit", // table order, spaces trimmed
		"9b,all":       "2,3,4,5,7,8,9b,9c,explicit",
		"7":            "7",
		"2,2,explicit": "2,explicit",
	} {
		sel, err := selectFigures(arg)
		if err != nil || names(sel) != want {
			t.Errorf("selectFigures(%q) = %s, %v; want %s", arg, names(sel), err, want)
		}
	}
	// One unknown name fails the whole selection and every unknown is named:
	// -fig 2,bogus used to run Fig. 2 and drop bogus without a word.
	for arg, unknown := range map[string][]string{
		"2,bogus":       {`"bogus"`},
		"bogus,9b,nope": {`"bogus"`, `"nope"`},
		"churn":         {`"churn"`},
		"":              {`""`},
		"all,fig2":      {`"fig2"`},
	} {
		sel, err := selectFigures(arg)
		if err == nil || sel != nil {
			t.Errorf("selectFigures(%q) = %s, %v; want an error and no figures", arg, names(sel), err)
			continue
		}
		for _, u := range unknown {
			if !strings.Contains(err.Error(), u) {
				t.Errorf("selectFigures(%q): error %q does not name %s", arg, err, u)
			}
		}
		if !strings.Contains(err.Error(), figureNames()) {
			t.Errorf("selectFigures(%q): error %q does not list the known figures", arg, err)
		}
	}
}
