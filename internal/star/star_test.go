package star

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/exact"
	"fastframe/internal/exec"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// buildFact builds a small fact table: sales with a "store" foreign key
// and an "amount" measure.
func buildFact(t *testing.T) *table.Table {
	t.Helper()
	schema := table.MustSchema(
		table.ColumnSpec{Name: "amount", Kind: table.Float},
		table.ColumnSpec{Name: "store", Kind: table.Categorical},
	)
	b := table.NewBuilder(schema, 25)
	stores := []string{"s1", "s2", "s3", "s4", "s5"}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 20000; i++ {
		s := rng.IntN(len(stores))
		amount := float64(s+1)*10 + rng.Float64()
		if err := b.Append(table.Row{
			Floats: map[string]float64{"amount": amount},
			Cats:   map[string]string{"store": stores[s]},
		}); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := b.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func storeDim() *Dimension {
	d := NewDimension("stores")
	d.Add("s1", map[string]string{"region": "west", "tier": "a"})
	d.Add("s2", map[string]string{"region": "east", "tier": "a"})
	d.Add("s3", map[string]string{"region": "west", "tier": "b"})
	d.Add("s4", map[string]string{"region": "east", "tier": "b"})
	d.Add("s5", map[string]string{"region": "west", "tier": "b"})
	return d
}

func TestDimensionBasics(t *testing.T) {
	d := storeDim()
	if d.Name() != "stores" || d.NumRows() != 5 {
		t.Fatalf("dimension metadata wrong: %s %d", d.Name(), d.NumRows())
	}
	if !d.HasAttribute("region") || d.HasAttribute("nope") {
		t.Error("HasAttribute wrong")
	}
	west := d.KeysWhere("region", "west")
	if len(west) != 3 || west[0] != "s1" || west[1] != "s3" || west[2] != "s5" {
		t.Errorf("KeysWhere(region,west) = %v", west)
	}
	if ks := d.KeysWhere("region", "north"); len(ks) != 0 {
		t.Errorf("KeysWhere(north) = %v", ks)
	}
}

// TestAbsentAttributeNeverMatches is the regression test for the
// absent-vs-empty bug: a row that does not define an attribute used to
// look up as "" and wrongly satisfy an equals-empty-string predicate.
// Absent must never match any predicate form.
func TestAbsentAttributeNeverMatches(t *testing.T) {
	d := NewDimension("stores")
	d.Add("s1", map[string]string{"region": "west", "note": ""})
	d.Add("s2", map[string]string{"region": "east"}) // no "note" at all
	d.Add("s3", map[string]string{"note": "x"})      // no "region"

	if got := d.KeysWhere("note", ""); len(got) != 1 || got[0] != "s1" {
		t.Errorf(`KeysWhere(note, "") = %v, want [s1] (absent must not match "")`, got)
	}
	// != and IN also skip rows lacking the attribute (SQL semantics).
	ne, err := d.KeysMatching(Ne("note", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ne) != 1 || ne[0] != "s1" {
		t.Errorf(`KeysMatching(note != "x") = %v, want [s1]`, ne)
	}
	in, err := d.KeysMatching(In("region", "west", "east", ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 2 || in[0] != "s1" || in[1] != "s2" {
		t.Errorf(`KeysMatching(region IN ...) = %v, want [s1 s2]`, in)
	}
}

func TestKeysMatchingOps(t *testing.T) {
	d := storeDim()
	all, err := d.KeysMatching()
	if err != nil || len(all) != 5 || all[0] != "s1" {
		t.Errorf("KeysMatching() = %v, %v (want all 5 keys)", all, err)
	}
	if got := d.Keys(); len(got) != 5 || got[4] != "s5" {
		t.Errorf("Keys() = %v", got)
	}
	ne, err := d.KeysMatching(Ne("region", "west"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ne) != 2 || ne[0] != "s2" || ne[1] != "s4" {
		t.Errorf("region != west = %v, want [s2 s4]", ne)
	}
	in, err := d.KeysMatching(In("tier", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 3 || in[0] != "s3" {
		t.Errorf("tier IN (b) = %v, want [s3 s4 s5]", in)
	}
	// Conjunction across predicates.
	conj, err := d.KeysMatching(Eq("region", "west"), Ne("tier", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(conj) != 2 || conj[0] != "s3" || conj[1] != "s5" {
		t.Errorf("west ∧ tier!=a = %v, want [s3 s5]", conj)
	}
	if _, err := d.KeysMatching(Eq("ghost", "x")); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := d.KeysMatching(AttrPred{Attr: "region", Op: AttrEq, Values: nil}); err == nil {
		t.Error("malformed Eq predicate accepted")
	}
}

// TestSnowflakeChain compiles a predicate over a second-level
// dimension (region → zone) down to fact-side store keys.
func TestSnowflakeChain(t *testing.T) {
	stores := storeDim()
	regions := NewDimension("regions")
	regions.Add("west", map[string]string{"zone": "pacific"})
	regions.Add("east", map[string]string{"zone": "atlantic"})

	// zone = 'pacific' on the regions dimension...
	regionKeys, err := regions.KeysMatching(Eq("zone", "pacific"))
	if err != nil {
		t.Fatal(err)
	}
	// ...chains into region IN {west} on the stores dimension...
	storeKeys, err := stores.KeysMatching(ChainIn("region", regionKeys))
	if err != nil {
		t.Fatal(err)
	}
	if len(storeKeys) != 3 || storeKeys[0] != "s1" || storeKeys[2] != "s5" {
		t.Errorf("chained store keys = %v, want [s1 s3 s5]", storeKeys)
	}
	// ...and finally into a fact-side IN atom.
	fact := buildFact(t)
	s := NewSchema(fact)
	if err := s.Attach("store", stores); err != nil {
		t.Fatal(err)
	}
	pred, err := s.CompileWhereAll(query.Predicate{}, "store", ChainIn("region", regionKeys))
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.CatIn) != 1 || len(pred.CatIn[0].Values) != 3 {
		t.Errorf("compiled pred = %+v", pred)
	}
	// An empty chain propagates to a provably empty fact view.
	empty, err := s.CompileWhereAll(query.Predicate{}, "store", ChainIn("region", nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.CatIn) != 1 || len(empty.CatIn[0].Values) != 0 {
		t.Errorf("empty chain compiled to %+v", empty)
	}
}

func TestAttachValidation(t *testing.T) {
	fact := buildFact(t)
	s := NewSchema(fact)
	if err := s.Attach("amount", storeDim()); err == nil {
		t.Error("attaching to a float column accepted")
	}
	if err := s.Attach("store", storeDim()); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach("store", storeDim()); err == nil {
		t.Error("double attach accepted")
	}
	if s.Dimension("store") == nil || s.Dimension("amount") != nil {
		t.Error("Dimension lookup wrong")
	}
	if s.Fact() != fact {
		t.Error("Fact accessor wrong")
	}
}

func TestCompileWhereErrors(t *testing.T) {
	s := NewSchema(buildFact(t))
	_ = s.Attach("store", storeDim())
	if _, err := s.CompileWhere(query.Predicate{}, "amount", "region", "west"); err == nil {
		t.Error("unattached column accepted")
	}
	if _, err := s.CompileWhere(query.Predicate{}, "store", "nope", "x"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestJoinViewEndToEnd runs an approximate aggregate over a join view
// (dimension predicate compiled to the fact side) and checks the CI
// against the exact join evaluation.
func TestJoinViewEndToEnd(t *testing.T) {
	fact := buildFact(t)
	s := NewSchema(fact)
	if err := s.Attach("store", storeDim()); err != nil {
		t.Fatal(err)
	}
	pred, err := s.CompileWhere(query.Predicate{}, "store", "region", "west")
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{
		Name: "west-avg",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "amount"}},
		Pred: pred,
		Stop: query.AbsWidth(3),
	}
	res, err := exec.Run(fact, q, exec.Options{
		Bounder:   core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
		Delta:     1e-9,
		RoundRows: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exact.Run(fact, q)
	if err != nil {
		t.Fatal(err)
	}
	truth := ex.Groups[0].Stats[0]
	// Ground truth sanity: west = stores 1,3,5 with means 10.5, 30.5,
	// 50.5 in equal proportion → about 30.5.
	if math.Abs(truth-30.5) > 1 {
		t.Fatalf("join ground truth %v implausible", truth)
	}
	if !res.Groups[0].Aggs[0].Interval.Contains(truth) {
		t.Errorf("join view interval [%v,%v] misses %v", res.Groups[0].Aggs[0].Interval.Lo, res.Groups[0].Aggs[0].Interval.Hi, truth)
	}
}

// TestJoinViewConjunction combines two dimension predicates.
func TestJoinViewConjunction(t *testing.T) {
	fact := buildFact(t)
	s := NewSchema(fact)
	_ = s.Attach("store", storeDim())
	pred, err := s.CompileWhere(query.Predicate{}, "store", "region", "west")
	if err != nil {
		t.Fatal(err)
	}
	pred, err = s.CompileWhere(pred, "store", "tier", "b")
	if err != nil {
		t.Fatal(err)
	}
	// west ∧ tier-b = {s3, s5}: means 30.5 and 50.5 → ≈40.5.
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "amount"}},
		Pred: pred,
		Stop: query.Exhaust(),
	}
	ex, err := exact.Run(fact, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ex.Groups[0].Stats[0]-40.5) > 1 {
		t.Errorf("conjunction ground truth %v, want ≈40.5", ex.Groups[0].Stats[0])
	}
}

// TestJoinViewEmpty compiles a dimension predicate matching no keys.
func TestJoinViewEmpty(t *testing.T) {
	fact := buildFact(t)
	s := NewSchema(fact)
	_ = s.Attach("store", storeDim())
	pred, err := s.CompileWhere(query.Predicate{}, "store", "region", "mars")
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "amount"}},
		Pred: pred,
		Stop: query.AbsWidth(1),
	}
	res, err := exec.Run(fact, q, exec.Options{
		Bounder: ci.HoeffdingSerfling{}, Delta: 1e-9, RoundRows: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("empty join view returned %d groups", len(res.Groups))
	}
	if res.BlocksFetched != 0 {
		t.Errorf("empty join view fetched %d blocks", res.BlocksFetched)
	}
}
