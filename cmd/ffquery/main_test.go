package main

import (
	"strings"
	"testing"

	"fastframe"
)

// Dim-spec parsing and loading are covered in internal/cliload, the
// shared helper ffquery and ffserved both use.

func TestPickBounder(t *testing.T) {
	cases := map[string]fastframe.Bounder{
		"hoeffding":    fastframe.Hoeffding,
		"hoeffding+rt": fastframe.HoeffdingRT,
		"bernstein":    fastframe.Bernstein,
		"bernstein+rt": fastframe.BernsteinRT,
		"anderson":     fastframe.Anderson,
	}
	for name, want := range cases {
		got, err := pickBounder(name)
		if err != nil || got != want {
			t.Errorf("pickBounder(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := pickBounder("magic"); err == nil {
		t.Error("unknown bounder accepted")
	}
}

func TestPickStrategy(t *testing.T) {
	cases := map[string]fastframe.Strategy{
		"scan":   fastframe.ScanStrategy,
		"active": fastframe.ActiveStrategy,
	}
	for name, want := range cases {
		got, err := pickStrategy(name)
		if err != nil || got != want {
			t.Errorf("pickStrategy(%q) = %v, %v", name, got, err)
		}
	}
	for _, name := range []string{"teleport", "active-sync", "active-peek"} {
		if _, err := pickStrategy(name); err == nil || !strings.Contains(err.Error(), "scan, active") {
			t.Errorf("pickStrategy(%q): %v, want an error listing the valid names", name, err)
		}
	}
}
