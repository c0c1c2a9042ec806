package fastframe

import (
	"bytes"
	"context"
	"testing"
)

func TestPublicPersistRoundTrip(t *testing.T) {
	orig := smallFlights(t)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != orig.NumRows() || got.NumBlocks() != orig.NumBlocks() {
		t.Fatalf("shape differs after round trip")
	}
	// The loaded table must answer queries identically (same scramble
	// order → same scan → same intervals).
	q := Avg("DepDelay").Where("Origin", "ORD").StopAtRelError(0.3)
	r1, err := orig.Query(context.Background(), q, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := got.Query(context.Background(), q, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Groups[0].Answers[0] != r2.Groups[0].Answers[0] || r1.BlocksFetched != r2.BlocksFetched {
		t.Errorf("loaded table answers differ: %+v vs %+v", r1.Groups[0].Answers[0], r2.Groups[0].Answers[0])
	}
	if _, err := ReadTable(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage stream accepted")
	}
}

func TestPublicCSVLoad(t *testing.T) {
	tb, err := NewTableBuilder(
		Column{Name: "delay", Kind: Float},
		Column{Name: "carrier", Kind: Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	csv := "carrier,delay\nAA,4\nUA,8\nAA,6\n"
	if err := tb.LoadCSV(bytes.NewReader([]byte(csv))); err != nil {
		t.Fatal(err)
	}
	tab, err := tb.Build(9)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := tab.QueryExact(context.Background(), Avg("delay").Where("carrier", "AA"))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Groups[0].Stats[0] != 5 {
		t.Errorf("CSV-loaded AVG = %v, want 5", ex.Groups[0].Stats[0])
	}
}
