package main

import (
	"testing"

	"fastframe/internal/exec"
	"fastframe/internal/experiments"
)

// TestRunAllExperimentsSmall drives every experiment the tool exposes
// at a tiny scale, catching wiring regressions between the CLI and the
// experiments package.
func TestRunAllExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	cfg := experiments.Config{
		Rows:      40_000,
		Seed:      1,
		Delta:     1e-9,
		RoundRows: 4_000,
		Strategy:  exec.Active,
	}
	for _, exp := range []string{"table2", "table34", "table5", "table6", "fig6", "fig7a", "fig8"} {
		if err := run(exp, cfg); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
	// fig7b sweeps 33 thresholds × 4 bounders; keep it but at low rows.
	small := cfg
	small.Rows = 20_000
	if err := run("fig7b", small); err != nil {
		t.Errorf("run(fig7b): %v", err)
	}
	if err := run("nonsense", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
}
