package table_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fastframe/internal/blockstore"
	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/exec"
	"fastframe/internal/flights"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// TestWriteToDigest freezes the written bytes: the digest was recorded
// from WriteTo at the last commit whose writer still took a version
// parameter (670de12), so the one format left is the v4 that commit
// wrote. A deliberate format change re-records it.
func TestWriteToDigest(t *testing.T) {
	const wantLen, wantSum = 236501, "2fcd91642706caa398e26b043f529c2bb1405d49234667d761748851080d4415"
	tab, err := flights.Generate(flights.Config{Rows: 10000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	n, err := tab.WriteTo(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); n != wantLen || got != wantSum {
		t.Errorf("WriteTo wrote %d bytes with SHA-256 %s, want %d and %s", n, got, wantLen, wantSum)
	}
}

// openFile writes file into a fresh directory and opens it out-of-core.
func openFile(t *testing.T, file []byte) *table.Table {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.ffsc")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	pool := blockstore.NewPool(1 << 20)
	tab, err := table.OpenStore(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := tab.Close(); err != nil {
			t.Errorf("closing the out-of-core table: %v", err)
		}
		pool.Close()
	})
	return tab
}

// TestV3FixtureReadOnly pins v3 as a format that is read and never
// written, against a file a v3 writer really produced.
//
// testdata/v3_small.ffsc was written at commit 670de12, the last one
// with a v3 writer, by this test in package table:
//
//	orig := genTable(t, rand.New(rand.NewPCG(3, 3)), 333, 25)
//	var buf bytes.Buffer
//	orig.writeTo(&buf, persistVersionBlocks)
//	os.WriteFile("testdata/v3_small.ffsc", buf.Bytes(), 0o644)
//
// — 333 rows in 14 blocks of 25 (the last one holds 8), three float and
// two categorical columns, one per segment codec. The file must load
// resident and open out-of-core as version 3, re-save as version 4, and
// all four tables must answer a set of statements byte-identically.
func TestV3FixtureReadOnly(t *testing.T) {
	v3, err := os.ReadFile("testdata/v3_small.ffsc")
	if err != nil {
		t.Fatal(err)
	}
	resident, err := table.ReadTable(bytes.NewReader(v3))
	if err != nil {
		t.Fatal(err)
	}
	if resident.NumRows() != 333 || resident.Layout().NumBlocks() != 14 {
		t.Fatalf("fixture loaded as %d rows in %d blocks", resident.NumRows(), resident.Layout().NumBlocks())
	}
	var v4 bytes.Buffer
	if _, err := resident.WriteTo(&v4); err != nil {
		t.Fatal(err)
	}
	resaved, err := table.ReadTable(bytes.NewReader(v4.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	oocV3, oocV4 := openFile(t, v3), openFile(t, v4.Bytes())
	if got := oocV3.Store().Version(); got != 3 {
		t.Errorf("the fixture opens as version %d, want 3", got)
	}
	if got := oocV4.Store().Version(); got != 4 {
		t.Errorf("the re-save opens as version %d, want 4", got)
	}

	avg := func(col string) []query.Aggregate { return []query.Aggregate{{Kind: query.Avg, Column: col}} }
	for _, q := range []query.Query{
		{Name: "exhaust", Aggs: avg("f_rand"), GroupBy: []string{"c_run"}, Stop: query.Exhaust()},
		{Name: "cat-eq", Aggs: avg("f_smooth"), Pred: query.Predicate{}.AndCatEquals("c_run", "r1"), Stop: query.RelWidth(0.1)},
		{Name: "range", Aggs: []query.Aggregate{{Kind: query.Sum, Column: "f_const"}, {Kind: query.Count}},
			Pred: query.Predicate{}.AndGreater("f_smooth", 100), GroupBy: []string{"c_hi"}, Stop: query.Exhaust()},
	} {
		var want string
		for i, tab := range []*table.Table{resident, oocV3, resaved, oocV4} {
			res, err := exec.Run(tab, q, exec.Options{
				Bounder:    core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
				RoundRows:  100,
				StartBlock: 5,
			})
			if err != nil {
				t.Fatalf("%s on table %d: %v", q.Name, i, err)
			}
			res.Duration = 0
			got := fmt.Sprintf("%+v", *res)
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: table %d (of v3 resident, v3 out-of-core, v4 resident, v4 out-of-core) answers\n%s\nthe first\n%s", q.Name, i, got, want)
			}
		}
	}
}
