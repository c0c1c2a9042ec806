package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"fastframe"
	"fastframe/internal/blockstore"
	"fastframe/internal/ci"
	"fastframe/internal/exact"
	"fastframe/internal/exec"
	"fastframe/internal/flights"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

func TestWriteCSVRoundTrip(t *testing.T) {
	tab, err := flights.Generate(flights.Config{Rows: 5_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flights.csv")
	if err := writeCSV(tab, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Reload through the generic CSV path and compare an aggregate.
	schema := table.MustSchema(
		table.ColumnSpec{Name: flights.ColDepDelay, Kind: table.Float},
		table.ColumnSpec{Name: flights.ColOrigin, Kind: table.Categorical},
		table.ColumnSpec{Name: flights.ColAirline, Kind: table.Categorical},
	)
	reloaded, err := table.LoadCSV(f, schema, 25, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.NumRows() != tab.NumRows() {
		t.Fatalf("rows %d vs %d", reloaded.NumRows(), tab.NumRows())
	}
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: flights.ColDepDelay}},
		GroupBy: []string{flights.ColAirline},
		Stop:    query.Exhaust(),
	}
	a, err := exact.Run(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exact.Run(reloaded, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range a.Groups {
		got := b.Group(g.Key)
		if got == nil || got.Count != g.Count {
			t.Errorf("group %s differs after CSV round trip", g.Key)
		}
		// CSV stores 3 decimals; means agree to ~1e-3.
		if diff := got.Stats[0] - g.Stats[0]; diff > 0.01 || diff < -0.01 {
			t.Errorf("group %s avg %v vs %v", g.Key, got.Stats[0], g.Stats[0])
		}
	}
}

func TestPrintSummary(t *testing.T) {
	tab, err := flights.Generate(flights.Config{Rows: 2_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := printSummary(tab); err != nil {
		t.Error(err)
	}
}

func TestSortedByAvg(t *testing.T) {
	group := func(key string, avg float64) exec.GroupResult {
		return exec.GroupResult{Key: key, Aggs: []exec.AggAnswer{{Interval: ci.Interval{Estimate: avg}}}}
	}
	res := &exec.Result{Groups: []exec.GroupResult{group("b", 5), group("a", 1), group("c", 3)}}
	out := sortedByAvg(res)
	if out[0].Key != "a" || out[1].Key != "c" || out[2].Key != "b" {
		t.Errorf("sorted order wrong: %+v", out)
	}
}

// TestUnsupportedFormatVersions: a table file claiming a version this
// build does not read — 1 and 2 (the retired monolithic layout), 3 (v4
// without checksums), 0, or one from the future — is refused as such by every way in: the
// resident load, the out-of-core open and `ffgen -verify`. None of them
// goes on to parse the bytes behind the version field.
func TestUnsupportedFormatVersions(t *testing.T) {
	tab, err := flights.Generate(flights.Config{Rows: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := tab.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	pool := fastframe.NewBufferPool(1 << 20)
	defer pool.Close()
	for _, version := range []uint32{0, 1, 2, 3, 5} {
		binary.LittleEndian.PutUint32(file.Bytes()[4:], version)
		path := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.ff", version))
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, readErr := fastframe.ReadTable(bytes.NewReader(file.Bytes()))
		_, openErr := fastframe.OpenTable(path, pool)
		for how, err := range map[string]error{"ReadTable": readErr, "OpenTable": openErr, "ffgen -verify": verifyTable(path)} {
			if !errors.Is(err, fastframe.ErrUnsupportedVersion) {
				t.Errorf("v%d file, %s: %v, want ErrUnsupportedVersion", version, how, err)
			}
		}
	}
}

// TestWriteTableBlockSizeCap: `ffgen -block` past the table format's cap
// of 2^16 rows still generates, and -table then fails with the classified
// error; at the cap the file writes.
func TestWriteTableBlockSizeCap(t *testing.T) {
	for _, block := range []int{1 << 16, 1<<16 + 1} {
		tab, err := flights.Generate(flights.Config{Rows: 1000, Seed: 1, BlockSize: block})
		if err != nil {
			t.Fatal(err)
		}
		err = writeTable(tab, filepath.Join(t.TempDir(), "flights.ff"))
		if refused := errors.Is(err, blockstore.ErrBlockSize); refused != (block > 1<<16) || (err != nil && !refused) {
			t.Errorf("-block %d: %v", block, err)
		}
	}
}
