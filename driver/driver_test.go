package ffdriver

import (
	"context"
	"database/sql"
	"math"
	"strings"
	"testing"

	"fastframe"
)

func testEngine(t *testing.T) *fastframe.Engine {
	t.Helper()
	tab, err := fastframe.GenerateFlights(40_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := fastframe.NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestParameterizedGroupByEndToEnd is the acceptance path: a
// parameterized GROUP BY query through database/sql, checked against
// the engine's own answer on the equivalent literal SQL.
func TestParameterizedGroupByEndToEnd(t *testing.T) {
	eng := testEngine(t)
	db := OpenDB(eng)
	defer db.Close()

	rows, err := db.Query(
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = ? GROUP BY Airline WITHIN ABS ?",
		"ORD", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"group_key", "estimate", "ci_lo", "ci_hi", "samples", "exact", "aborted", "degraded"}
	if strings.Join(cols, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", cols, want)
	}

	type row struct {
		lo, est, hi float64
		samples     int64
	}
	got := map[string]row{}
	for rows.Next() {
		var (
			key                      string
			est, lo, hi              float64
			samples                  int64
			exact, aborted, degraded bool
		)
		if err := rows.Scan(&key, &est, &lo, &hi, &samples, &exact, &aborted, &degraded); err != nil {
			t.Fatal(err)
		}
		if aborted {
			t.Errorf("group %q: uncancelled query reported aborted", key)
		}
		if lo > est || est > hi {
			t.Errorf("group %q: estimate %v outside CI [%v, %v]", key, est, lo, hi)
		}
		got[key] = row{lo: lo, est: est, hi: hi, samples: samples}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no groups returned")
	}

	// The driver path must agree with the engine on the literal SQL.
	ref, err := eng.Query(context.Background(),
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' GROUP BY Airline WITHIN ABS 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Groups) != len(got) {
		t.Fatalf("driver returned %d groups, engine %d", len(got), len(ref.Groups))
	}
	for _, g := range ref.Groups {
		d, ok := got[g.Key]
		if !ok {
			t.Errorf("group %q missing from driver result", g.Key)
			continue
		}
		iv := g.Answers[0]
		if math.Abs(d.est-iv.Estimate) > 1e-12 || math.Abs(d.lo-iv.Lo) > 1e-12 || math.Abs(d.hi-iv.Hi) > 1e-12 {
			t.Errorf("group %q: driver [%v, %v, %v] vs engine %v", g.Key, d.lo, d.est, d.hi, iv)
		}
		if d.samples != int64(g.Samples) {
			t.Errorf("group %q: samples %d vs %d", g.Key, d.samples, g.Samples)
		}
	}
}

// TestParameterizedJoinGroupByEndToEnd drives a star-schema JOIN with
// a '?'-bound dimension predicate through database/sql and checks it
// against the engine's answer on the equivalent literal SQL.
func TestParameterizedJoinGroupByEndToEnd(t *testing.T) {
	eng := testEngine(t)
	tab, err := eng.Table("flights")
	if err != nil {
		t.Fatal(err)
	}
	origins, err := tab.CategoricalValues("Origin")
	if err != nil {
		t.Fatal(err)
	}
	airports := fastframe.NewDimension("airports")
	for i, code := range origins {
		region := "east"
		if i%2 == 0 {
			region = "west"
		}
		airports.Add(code, map[string]string{"region": region})
	}
	if err := eng.RegisterDimension("airports", airports); err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachDimension("flights", "Origin", "airports"); err != nil {
		t.Fatal(err)
	}

	db := OpenDB(eng)
	defer db.Close()

	rows, err := db.Query(
		"SELECT AVG(DepDelay) FROM flights JOIN airports ON flights.Origin = airports.key "+
			"WHERE airports.region = ? AND DepDelay > ? GROUP BY DayOfWeek WITHIN ABS ?",
		"west", -60.0, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	type row struct {
		lo, est, hi float64
		samples     int64
	}
	got := map[string]row{}
	for rows.Next() {
		var (
			key                      string
			est, lo, hi              float64
			samples                  int64
			exact, aborted, degraded bool
		)
		if err := rows.Scan(&key, &est, &lo, &hi, &samples, &exact, &aborted, &degraded); err != nil {
			t.Fatal(err)
		}
		got[key] = row{lo: lo, est: est, hi: hi, samples: samples}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("join GROUP BY DayOfWeek returned %d groups, want 7", len(got))
	}

	ref, err := eng.Query(context.Background(),
		"SELECT AVG(DepDelay) FROM flights JOIN airports ON flights.Origin = airports.key "+
			"WHERE airports.region = 'west' AND DepDelay > -60 GROUP BY DayOfWeek WITHIN ABS 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Groups) != len(got) {
		t.Fatalf("driver returned %d groups, engine %d", len(got), len(ref.Groups))
	}
	for _, g := range ref.Groups {
		d, ok := got[g.Key]
		if !ok {
			t.Errorf("group %q missing from driver result", g.Key)
			continue
		}
		iv := g.Answers[0]
		if d.est != iv.Estimate || d.lo != iv.Lo || d.hi != iv.Hi || d.samples != int64(g.Samples) {
			t.Errorf("group %q: driver [%v, %v, %v] (%d samples) vs engine %v (%d samples)",
				g.Key, d.lo, d.est, d.hi, d.samples, iv, g.Samples)
		}
	}
}

// TestPreparedReuse prepares once and runs with different bindings.
func TestPreparedReuse(t *testing.T) {
	db := OpenDB(testEngine(t))
	defer db.Close()

	stmt, err := db.Prepare("SELECT COUNT(*) FROM flights WHERE Origin = ? EXACT")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	total := 0.0
	for _, origin := range []string{"ORD", "LAX", "ATL"} {
		var (
			key                      string
			est, lo, hi              float64
			samples                  int64
			exact, aborted, degraded bool
		)
		if err := stmt.QueryRow(origin).Scan(&key, &est, &lo, &hi, &samples, &exact, &aborted, &degraded); err != nil {
			t.Fatalf("origin %s: %v", origin, err)
		}
		if !exact || lo != hi || est <= 0 {
			t.Errorf("origin %s: want exact positive count, got est=%v lo=%v hi=%v exact=%v", origin, est, lo, hi, exact)
		}
		total += est
	}
	if total <= 0 {
		t.Error("no rows counted across origins")
	}
}

// TestRegistryOpen exercises the sql.Open("fastframe", name) path.
func TestRegistryOpen(t *testing.T) {
	RegisterEngine("driver-test", testEngine(t))
	db, err := sql.Open(DriverName, "driver-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}

	var (
		key                      string
		est, lo, hi              float64
		samples                  int64
		exact, aborted, degraded bool
	)
	err = db.QueryRow("SELECT AVG(DepDelay) FROM flights WITHIN 20%").
		Scan(&key, &est, &lo, &hi, &samples, &exact, &aborted, &degraded)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		t.Errorf("ungrouped key = %q, want \"\"", key)
	}
	if !(lo <= est && est <= hi) {
		t.Errorf("estimate %v outside [%v, %v]", est, lo, hi)
	}

	if _, err := sql.Open(DriverName, "no-such-engine"); err == nil {
		// sql.Open defers dial errors to first use; force it.
		db2, _ := sql.Open(DriverName, "no-such-engine")
		if err := db2.Ping(); err == nil {
			t.Error("unknown DSN accepted")
		}
		db2.Close()
	}
}

// TestDriverRejects covers the unsupported surface: Exec, transactions,
// named parameters, bad SQL, and bind-type errors.
func TestDriverRejects(t *testing.T) {
	db := OpenDB(testEngine(t))
	defer db.Close()

	if _, err := db.Exec("SELECT COUNT(*) FROM flights EXACT"); err == nil {
		t.Error("Exec accepted")
	}
	if _, err := db.Begin(); err == nil {
		t.Error("Begin accepted")
	}
	if _, err := db.Query("SELECT AVG(DepDelay) FROM flights WHERE Origin = ?",
		sql.Named("origin", "ORD")); err == nil {
		t.Error("named parameter accepted")
	}
	if _, err := db.Query("SELEKT nonsense"); err == nil {
		t.Error("bad SQL accepted")
	}
	_, err := db.Query("SELECT AVG(DepDelay) FROM flights WHERE Origin = ? EXACT", 42)
	if err == nil || !strings.Contains(err.Error(), "parameter 1") {
		t.Errorf("bind-type error = %v, want parameter 1 mention", err)
	}
}

// TestMultiAggregateColumns: a multi-aggregate SELECT list widens the
// row to per-position estimate/ci columns, matching the engine's
// Answers on the same literal SQL.
func TestMultiAggregateColumns(t *testing.T) {
	eng := testEngine(t)
	db := OpenDB(eng)
	defer db.Close()

	const q = "SELECT AVG(DepDelay), MEDIAN(DepDelay), VAR(DepDelay), COUNT(DISTINCT Origin) FROM flights GROUP BY Airline"
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"group_key",
		"estimate_1", "ci_lo_1", "ci_hi_1",
		"estimate_2", "ci_lo_2", "ci_hi_2",
		"estimate_3", "ci_lo_3", "ci_hi_3",
		"estimate_4", "ci_lo_4", "ci_hi_4",
		"samples", "exact", "aborted", "degraded"}
	if strings.Join(cols, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", cols, want)
	}

	ref, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for rows.Next() {
		var (
			key                      string
			est, lo, hi              [4]float64
			samples                  int64
			exact, aborted, degraded bool
		)
		if err := rows.Scan(&key,
			&est[0], &lo[0], &hi[0], &est[1], &lo[1], &hi[1],
			&est[2], &lo[2], &hi[2], &est[3], &lo[3], &hi[3],
			&samples, &exact, &aborted, &degraded); err != nil {
			t.Fatal(err)
		}
		if i >= len(ref.Groups) {
			t.Fatal("driver returned more groups than the engine")
		}
		g := ref.Groups[i]
		i++
		if key != g.Key || samples != int64(g.Samples) {
			t.Fatalf("row %d: key/samples %q/%d vs engine %q/%d", i, key, samples, g.Key, g.Samples)
		}
		for k, iv := range g.Answers {
			if est[k] != iv.Estimate || lo[k] != iv.Lo || hi[k] != iv.Hi {
				t.Errorf("group %q agg %d: driver [%v, %v, %v] vs engine %v", key, k+1, lo[k], est[k], hi[k], iv)
			}
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(ref.Groups) {
		t.Fatalf("driver returned %d groups, engine %d", i, len(ref.Groups))
	}
}

// TestSingleWideAggregateColumns: a one-aggregate MEDIAN query emits the
// unsuffixed column set, with the estimate carrying the median.
func TestSingleWideAggregateColumns(t *testing.T) {
	eng := testEngine(t)
	db := OpenDB(eng)
	defer db.Close()

	rows, err := db.Query("SELECT MEDIAN(DepDelay) FROM flights")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 8 || cols[1] != "estimate" {
		t.Fatalf("columns = %v", cols)
	}
	if !rows.Next() {
		t.Fatal("no rows")
	}
	var (
		key                      string
		est, lo, hi              float64
		samples                  int64
		exact, aborted, degraded bool
	)
	if err := rows.Scan(&key, &est, &lo, &hi, &samples, &exact, &aborted, &degraded); err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Query(context.Background(), "SELECT MEDIAN(DepDelay) FROM flights")
	if err != nil {
		t.Fatal(err)
	}
	iv := ref.Groups[0].Answers[0]
	if est != iv.Estimate || lo != iv.Lo || hi != iv.Hi {
		t.Errorf("driver [%v, %v, %v] vs engine MEDIAN %v", lo, est, hi, iv)
	}
}
