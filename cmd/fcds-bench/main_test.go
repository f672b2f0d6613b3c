package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExperimentTable: the table is the only list of experiments, so
// every entry dispatches, is in the usage text and runs under `all`.
func TestExperimentTable(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	text := buf.String()
	all := pick("all")
	if len(all) != len(experiments) {
		t.Fatalf("all runs %d experiments, the table has %d", len(all), len(experiments))
	}
	seen := make(map[string]bool)
	for i, e := range experiments {
		if seen[e.name] {
			t.Errorf("%s: listed twice", e.name)
		}
		seen[e.name] = true
		if got := pick(e.name); len(got) != 1 || got[0].name != e.name {
			t.Errorf("%s: does not dispatch to itself", e.name)
		}
		if !strings.Contains(text, "  "+e.name+" ") || !strings.Contains(text, e.help) {
			t.Errorf("%s: missing from usage:\n%s", e.name, text)
		}
		if all[i].name != e.name {
			t.Errorf("all runs %s at position %d, the table has %s", all[i].name, i, e.name)
		}
	}
	if !strings.Contains(text, "  all ") {
		t.Errorf("usage does not list all:\n%s", text)
	}
}

// TestUnknownExperimentExits2: the system experiments were deleted;
// their names are unknown commands now, like any typo.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, args := range [][]string{nil, {"table"}, {"rollup", "-full"}, {"no-such"}} {
		if code := run(args); code != 2 {
			t.Errorf("fcds-bench %v: exit %d, want 2", args, code)
		}
	}
}
