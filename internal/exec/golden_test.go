package exec

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastframe/internal/query"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.txt from the current engine")

const goldenPath = "testdata/golden_results.txt"

// goldenOutcome is one execution as the golden file records it: the
// Result's scalar fields in the clear (so a drift is readable), and
// SHA-256 digests over a canonical rendering of the Result's groups and
// of the whole Progress stream (goldenGroups). The rendering names only
// what every result shape carries — per group the key, each SELECT-list
// answer's kind and the IEEE-754 bits of its interval, Samples and
// Exact — so the digests change iff a single bit of any answer, count
// or flag does, and do not change when a field that merely repeats an
// answer is added to or removed from GroupResult.
//
// The file was regenerated once, with the engine untouched, in the
// commit that introduced this rendering (before that the digests
// hashed %+v of the structs, which tied them to the field list). Every
// later commit must pass against it byte-unchanged.
func goldenOutcome(res *Result, snaps []RoundSnapshot) string {
	flags := ""
	if res.Exhausted {
		flags += "E"
	}
	if res.Stopped {
		flags += "S"
	}
	if res.Aborted {
		flags += "A"
	}
	if res.Degraded {
		flags += "D"
	}
	var rb, pb strings.Builder
	fmt.Fprintf(&rb, "quarantined=%d\n", res.QuarantinedBlocks)
	goldenGroups(&rb, res.Groups)
	for _, s := range snaps {
		fmt.Fprintf(&pb, "round=%d rows=%d blocks=%d active=%d degraded=%t quarantined=%d\n",
			s.Round, s.RowsCovered, s.BlocksFetched, s.NumActive, s.Degraded, s.QuarantinedBlocks)
		goldenGroups(&pb, s.Groups)
	}
	return fmt.Sprintf("blocks=%d rows=%d rounds=%d start=%d groups=%d flags=%s result=%x progress=%x",
		res.BlocksFetched, res.RowsCovered, res.Rounds, res.StartBlock, len(res.Groups), flags,
		sha256.Sum256([]byte(rb.String())), sha256.Sum256([]byte(pb.String())))
}

// goldenGroups renders groups canonically, one line per group.
func goldenGroups(b *strings.Builder, groups []GroupResult) {
	for _, g := range groups {
		fmt.Fprintf(b, "%q samples=%d exact=%t", g.Key, g.Samples, g.Exact)
		for _, a := range g.Aggs {
			iv := a.Interval
			fmt.Fprintf(b, " %s[%016x %016x %016x n=%d]", a.Kind,
				math.Float64bits(iv.Lo), math.Float64bits(iv.Hi), math.Float64bits(iv.Estimate), iv.Samples)
		}
		b.WriteByte('\n')
	}
}

// goldenMode is one termination family of the golden matrix.
type goldenMode struct {
	name string
	stop func(query.Query) query.Stop
	tune func(*Options) // wraps the capture hook already installed
}

func goldenModes() []goldenMode {
	exhaust := func(query.Query) query.Stop { return query.Exhaust() }
	return []goldenMode{
		// Every view is active until it holds 60 samples: the small views
		// of the grouped shapes get there at different rounds mid-scan
		// (ungrouped COUNT instead converges on relative width, round 2).
		{name: "converged", stop: func(q query.Query) query.Stop {
			if len(q.GroupBy) == 0 {
				return query.RelWidth(0.6)
			}
			return query.FixedSamples(60)
		}},
		{name: "aborted", stop: exhaust, tune: func(o *Options) {
			inner := o.OnRound
			o.OnRound = func(s RoundSnapshot) bool {
				inner(s)
				return s.Round < 2
			}
		}},
		{name: "exhausted", stop: exhaust},
		// Mid-round and mid-block: rounds close at 1000, 2000; blocks are 25 rows.
		{name: "maxrows", stop: exhaust, tune: func(o *Options) { o.MaxRows = 2510 }},
	}
}

// goldenOpts builds the options of one run plus its Progress capture.
func goldenOpts(st Strategy, m goldenMode) (Options, *[]RoundSnapshot) {
	o := Options{
		Bounder:    bernsteinRT(),
		Strategy:   st,
		Delta:      1e-9,
		RoundRows:  1000,
		StartBlock: 13,
	}
	snaps := captureRounds(&o)
	if m.tune != nil {
		m.tune(&o)
	}
	return o, snaps
}

// TestGoldenResults freezes the engine's observable behaviour against a
// file generated before the round-engine unification: kernelQueries ×
// strategy × termination mode × 2 scramble seeds. (The names keep the
// P=1 of the worker-count axis the file had while scans could be split,
// and the /solo of the driver axis it had while a shared scan could run
// them.) The
// mode-vs-mode identity suites cannot see a drift that moves every mode
// together; this can. Run with -update to regenerate (only when a
// behaviour change is intended).
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix skipped in -short mode")
	}
	var names []string
	got := map[string]string{}
	record := func(name, outcome string) {
		names = append(names, name)
		got[name] = outcome
	}
	qs := kernelQueries()
	for _, seed := range []uint64{7, 21} {
		tab := buildTestTable(t, 20_000, seed)
		for _, q := range qs {
			for _, st := range []Strategy{Scan, Active} {
				for _, m := range goldenModes() {
					name := fmt.Sprintf("seed=%d/%s/%s/P=1/%s/solo", seed, q.Name, st, m.name)
					mq := q
					mq.Stop = m.stop(q)
					o, snaps := goldenOpts(st, m)
					res, err := Run(tab, mq, o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					record(name, goldenOutcome(res, *snaps))
				}
			}
		}
	}
	if t.Failed() {
		return
	}

	if *updateGolden {
		var sb strings.Builder
		for _, n := range names {
			fmt.Fprintf(&sb, "%s\t%s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden outcomes to %s", len(names), goldenPath)
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/exec -run TestGoldenResults -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, outcome, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = outcome
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d outcomes, the matrix produced %d", len(want), len(got))
	}
	bad := 0
	for _, n := range names {
		if want[n] != got[n] {
			if bad++; bad <= 10 {
				t.Errorf("%s drifted\n golden: %s\n    got: %s", n, want[n], got[n])
			}
		}
	}
	if bad > 10 {
		t.Errorf("… and %d more drifted outcomes", bad-10)
	}
}
