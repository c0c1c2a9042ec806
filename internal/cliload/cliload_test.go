package cliload

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastframe"
)

func TestParseTableSpec(t *testing.T) {
	name, path, err := ParseTableSpec("flights=/data/flights.ff")
	if err != nil || name != "flights" || path != "/data/flights.ff" {
		t.Errorf("ParseTableSpec = %q %q %v", name, path, err)
	}
	for _, bad := range []string{"", "noequals", "=path", "name="} {
		if _, _, err := ParseTableSpec(bad); err == nil {
			t.Errorf("ParseTableSpec(%q) accepted", bad)
		}
	}
}

func TestParseDimSpec(t *testing.T) {
	name, path, key, err := ParseDimSpec("airports=data/airports.csv:Origin")
	if err != nil || name != "airports" || path != "data/airports.csv" || key != "Origin" {
		t.Errorf("ParseDimSpec = %q %q %q %v", name, path, key, err)
	}
	// A path containing ':' splits on the last one.
	_, path, key, err = ParseDimSpec("d=C:/tmp/d.csv:fk")
	if err != nil || path != "C:/tmp/d.csv" || key != "fk" {
		t.Errorf("colon path: %q %q %v", path, key, err)
	}
	for _, bad := range []string{"", "noequals", "=x:y", "a=pathonly", "a=path:", "a=:key"} {
		if _, _, _, err := ParseDimSpec(bad); err == nil {
			t.Errorf("ParseDimSpec(%q) accepted", bad)
		}
	}
}

// TestLoadTables persists a table with WriteTo and loads it back
// through the -table spec path, checking the registration round-trips.
func TestLoadTables(t *testing.T) {
	tab, err := fastframe.GenerateFlights(5_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "flights.ff")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	eng := fastframe.NewEngine()
	names, err := LoadTables(eng, []string{"flights=" + path}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "flights" {
		t.Errorf("names = %v", names)
	}
	got, err := eng.Table("flights")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() {
		t.Errorf("loaded %d rows, want %d", got.NumRows(), tab.NumRows())
	}

	if _, err := LoadTables(eng, []string{"bad=" + filepath.Join(dir, "missing.ff")}, nil, nil); err == nil {
		t.Error("missing table file accepted")
	}
	if _, err := LoadTables(eng, []string{"badspec"}, nil, nil); err == nil {
		t.Error("bad spec accepted")
	}
}

// TestLoadTablesOutOfCore loads the same file resident and through a
// pool, checking the pool path really pages (counters move) and answers
// agree.
func TestLoadTablesOutOfCore(t *testing.T) {
	tab, err := fastframe.GenerateFlights(5_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "flights.ff")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	pool := fastframe.NewBufferPool(1 << 20)
	defer pool.Close()
	eng := fastframe.NewEngine()
	if _, err := LoadTables(eng, []string{"flights=" + path}, pool, nil); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Table("flights")
	if err != nil {
		t.Fatal(err)
	}
	if !got.OutOfCore() {
		t.Fatal("pool given but table not out-of-core")
	}
	defer got.Close()
	res, err := eng.Query(context.Background(), "SELECT AVG(DepDelay) FROM flights WITHIN 5%")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no groups")
	}
	if st := got.PoolStats(); st.Misses == 0 || st.BytesRead == 0 {
		t.Errorf("pool counters did not move: %+v", st)
	}
}

func TestParseCSVTableSpec(t *testing.T) {
	name, path, cols, err := ParseCSVTableSpec("fl=data/fl.csv#DepDelay:float,Origin:cat")
	if err != nil || name != "fl" || path != "data/fl.csv" || len(cols) != 2 {
		t.Fatalf("ParseCSVTableSpec = %q %q %v %v", name, path, cols, err)
	}
	if cols[0].Name != "DepDelay" || cols[0].Kind != fastframe.Float ||
		cols[1].Name != "Origin" || cols[1].Kind != fastframe.Categorical {
		t.Errorf("cols = %v", cols)
	}
	for _, bad := range []string{"", "noequals", "=p#c:float", "a=p", "a=p#", "a=p#c", "a=p#c:int", "a=p#:float"} {
		if _, _, _, err := ParseCSVTableSpec(bad); err == nil {
			t.Errorf("ParseCSVTableSpec(%q) accepted", bad)
		}
	}
}

// FuzzCLISpecs: a -table, -csv-table or -dim spec that parses has a
// non-empty name, path and key (the CSV schema), and the parts put back
// together are the input.
func FuzzCLISpecs(f *testing.F) {
	for _, s := range []string{
		"flights=/data/flights.ff", "fl=data/fl.csv#DepDelay:float,Origin:cat",
		"airports=data/airports.csv:Origin", "d=C:/tmp/d.csv:fk", "a=b=c#x:cat:float", "=p", "a=:k",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if name, path, err := ParseTableSpec(spec); err == nil {
			if name == "" || path == "" || name+"="+path != spec {
				t.Errorf("ParseTableSpec(%q) = %q, %q", spec, name, path)
			}
		}
		if name, path, cols, err := ParseCSVTableSpec(spec); err == nil {
			kinds := map[fastframe.ColumnKind]string{fastframe.Float: "float", fastframe.Categorical: "cat"}
			schema := make([]string, len(cols))
			for i, c := range cols {
				schema[i] = c.Name + ":" + kinds[c.Kind]
			}
			if name == "" || path == "" || len(cols) == 0 || name+"="+path+"#"+strings.Join(schema, ",") != spec {
				t.Errorf("ParseCSVTableSpec(%q) = %q, %q, %v", spec, name, path, cols)
			}
		}
		if name, path, key, err := ParseDimSpec(spec); err == nil {
			if name == "" || path == "" || key == "" || name+"="+path+":"+key != spec {
				t.Errorf("ParseDimSpec(%q) = %q, %q, %q", spec, name, path, key)
			}
		}
	})
}

func TestLoadCSVTables(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "fl.csv")
	if err := os.WriteFile(csvPath, []byte("Origin,DepDelay\nORD,5.5\nLAX,-2\nORD,11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := fastframe.NewEngine()
	names, err := LoadCSVTables(eng, []string{"fl=" + csvPath + "#Origin:cat,DepDelay:float"}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "fl" {
		t.Fatalf("names = %v", names)
	}
	tab, err := eng.Table("fl")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 {
		t.Errorf("NumRows = %d, want 3", tab.NumRows())
	}
	if _, err := LoadCSVTables(eng, []string{"bad=" + filepath.Join(dir, "missing.csv") + "#A:float"}, 7, nil); err == nil {
		t.Error("missing CSV accepted")
	}
}

func TestLoadDims(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "airports.csv")
	if err := os.WriteFile(csvPath, []byte("Origin,region\nORD,midwest\nLAX,west\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := fastframe.GenerateFlights(5_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := fastframe.NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	if err := LoadDims(eng, []string{"flights"}, []string{"airports=" + csvPath + ":Origin"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := eng.Dimensions(); len(got) != 1 || got[0] != "airports" {
		t.Errorf("Dimensions = %v", got)
	}
	// The attachment is live: a joining statement resolves.
	if _, err := eng.Query(context.Background(),
		"SELECT AVG(DepDelay) FROM flights JOIN airports ON flights.Origin = airports.key WHERE airports.region = 'west' WITHIN 50%"); err != nil {
		t.Errorf("join over loaded dim: %v", err)
	}
	if err := LoadDims(eng, []string{"flights"}, []string{"bad=" + filepath.Join(dir, "missing.csv") + ":Origin"}, nil); err == nil {
		t.Error("missing CSV accepted")
	}
}
