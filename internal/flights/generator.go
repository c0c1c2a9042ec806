// Package flights simulates the paper's evaluation dataset (the public
// Flights records of [1], 606M rows) and defines its nine evaluation
// queries F-q1..F-q9 (Figure 5 / Table 4).
//
// The real dataset is unavailable offline and far beyond laptop scale,
// so this generator synthesizes rows with the same five attributes and
// — more importantly — the same structural properties the paper's
// phenomena depend on:
//
//   - per-airline mean delays spread over ≈6.5..12 minutes, matching the
//     group aggregates plotted against the HAVING threshold in Fig. 7b;
//   - airport populations spanning four orders of magnitude of
//     selectivity (Fig. 6's sweep), including sparse airports that
//     bottleneck GROUP BY termination (the active-scanning regime of
//     Table 6);
//   - a few airports with negative mean delay (F-q5's output), a few
//     with mean delay within ±0.4 of zero (F-q5's hard groups), and a
//     cluster of airports with nearly identical near-maximal means
//     (F-q8's hard separation);
//   - delay growing with departure time at airline-specific rates, so
//     raising $min_dep_time spreads the airline means apart (Fig. 8);
//   - a heavy right tail with rare extreme delays, while catalog range
//     bounds are widened to [−180, 1800]: observed ranges sit far inside
//     the a-priori range, the regime where RangeTrim pays off.
package flights

import (
	"math"
	"math/rand/v2"

	"fastframe/internal/table"
)

// Column names of the simulated Flights table.
const (
	ColOrigin    = "Origin"
	ColAirline   = "Airline"
	ColDepDelay  = "DepDelay"
	ColDepTime   = "DepTime"
	ColDayOfWeek = "DayOfWeek"
)

// Airlines are the ten carriers of the paper's Figure 7(b), ordered by
// increasing true mean delay.
var Airlines = []string{"NW", "DL", "TW", "CO", "AA", "UA", "WN", "US", "AS", "HP"}

// airlineBase gives each airline's base delay; the noise tail and the
// lateness slope add ≈2.3 on average, landing the aggregates on
// ≈4.3..16.3. The paper's aggregates sit on 6.5..12 over 3B rows; at
// laptop scale the spacing is widened proportionally so threshold and
// separation queries keep the paper's easy/hard split (the governing
// ratio is (b−a)·log(1/δ)/(gap·N_view), and N_view here is ~1000×
// smaller).
var airlineBase = []float64{2.0, 3.3, 4.6, 5.9, 7.2, 8.5, 9.8, 11.1, 12.4, 14.0}

// airlineSlope controls how much later departures are delayed, per
// airline: the spread of airline means grows with $min_dep_time (the
// Figure 8 effect).
var airlineSlope = []float64{0.4, 1.0, 1.7, 2.3, 3.0, 3.6, 4.3, 4.9, 5.6, 6.2}

// NumAirports is the number of origin airports generated.
const NumAirports = 60

// Config parameterizes the generator.
type Config struct {
	// Rows is the number of flights to synthesize (required).
	Rows int
	// Seed drives all randomness; equal configs generate equal tables.
	Seed uint64
	// BlockSize is the scramble block size; ≤ 0 selects the paper's 25.
	BlockSize int
}

// CatalogLo and CatalogHi are the a-priori DepDelay range bounds kept in
// the catalog, deliberately wider than any generated value (a data-load
// catalog would keep such conservative bounds; §2.2.1 only requires
// [a,b] ⊇ [MIN,MAX]). The real dataset's range reaches ≈1800 minutes
// over 3B rows; the synthetic tail is capped at ≈650 so that the
// range-to-view-size ratio (b−a)²·log(1/δ)/N — which controls where
// early stopping becomes possible — matches the paper's regime at
// millions rather than billions of rows.
const (
	CatalogLo = -180
	CatalogHi = 700
)

// AirportInfo describes one generated airport.
type AirportInfo struct {
	Code string
	// Share is the fraction of flights originating at the airport.
	Share float64
	// Offset is the airport's contribution to mean delay.
	Offset float64
}

// airports builds the airport roster. Shares are deliberately bimodal:
// a head of 36 airports with shares ≥≈1.5% whose groups can decide
// early at laptop scale, and a sparse tail (≤≈0.07% each, ≈0.7% of all
// rows together) whose groups bottleneck termination — exactly the
// regime where active scanning pays off, because once the head decides,
// only ≈15% of blocks contain any tail row. Shares in the dead zone
// between (too small to decide, too dense to skip) are avoided; the
// paper's real dataset has thousands of airports and lands in the same
// two regimes naturally. Offsets place specific airports in the regimes
// the paper's queries need.
func airports() []AirportInfo {
	out := make([]AirportInfo, NumAirports)
	total := 0.0
	for i := range out {
		var w float64
		switch {
		case i < 36:
			w = math.Pow(float64(i+9), -1.35) // head: ≈6.5% down to ≈1.5%
		case i < 45:
			w = 0.0002 // special tail airports (≈0.036%)
		default:
			w = 0.00008 // generic tail (≈0.014%)
		}
		out[i].Share = w
		total += w
	}
	for i := range out {
		out[i].Share /= total
	}
	codes := []string{
		"ORD", "ATL", "DFW", "LAX", "PHX", "DEN", "DTW", "IAH", "MSP", "SFO",
		"EWR", "STL", "CLT", "LAS", "PHL", "PIT", "SLC", "SEA", "MCO", "BOS",
		"CVG", "LGA", "DCA", "BWI", "SAN", "TPA", "MDW", "PDX", "MIA", "CLE",
		"OAK", "MCI", "SMF", "HOU", "SJC", "SNA", "ABQ", "MSY", "RDU", "IND",
		"AUS", "SAT", "BNA", "DAL", "ONT", "FLL", "BUR", "JAX", "RNO", "OKC",
		"TUS", "ELP", "BDL", "OMA", "BOI", "GEG", "LIT", "ISP", "FAT", "PSP",
	}
	for i := range out {
		out[i].Code = codes[i]
	}
	// Head offsets decrease gently with airport size so that every head
	// airport's mean stays well away from BOTH common decision
	// boundaries — zero (F-q5's threshold) and the near-max cluster
	// (F-q8's top-1 midpoint) — keeping share × gap large enough that
	// each head decides within a bounded prefix of the scan (the
	// paper's dense groups).
	for i := 0; i < 36; i++ {
		out[i].Offset = 2.5 - 0.1*float64(i)
	}
	// ORD: comfortably above 10 overall (F-q4 decides "AVG > 10" fast)
	// but below the near-max cluster, so it never contends for top-1.
	out[0].Offset = 3.0
	// A cluster of sparse airports with nearly identical near-maximal
	// means: F-q8's top-1 separation bottleneck. Being sparse, they can
	// only be resolved by exhausting their views — which block skipping
	// makes cheap (Table 6's F-q8 row).
	out[36].Offset = 5.30
	out[37].Offset = 5.22
	out[38].Offset = 5.15
	// Sparse airports with clearly negative means: F-q5's output rows.
	out[39].Offset = -22
	out[40].Offset = -25
	out[41].Offset = -21
	// Sparse airports with means within ≈±1 of zero: F-q5's hard,
	// near-undecidable groups.
	out[42].Offset = -9.9
	out[43].Offset = -10.6
	out[44].Offset = -10.2
	// Generic tail: unremarkable low-delay airports.
	for i := 45; i < NumAirports; i++ {
		out[i].Offset = -3 - 0.8*float64(i%5)
	}
	return out
}

// Schema returns the five-attribute Flights schema.
func Schema() *table.Schema {
	return table.MustSchema(
		table.ColumnSpec{Name: ColDepDelay, Kind: table.Float},
		table.ColumnSpec{Name: ColDepTime, Kind: table.Float},
		table.ColumnSpec{Name: ColOrigin, Kind: table.Categorical},
		table.ColumnSpec{Name: ColAirline, Kind: table.Categorical},
		table.ColumnSpec{Name: ColDayOfWeek, Kind: table.Categorical},
	)
}

// dayOffset is the day-of-week delay contribution (Friday worst).
var dayOffset = []float64{-0.8, -1.2, -0.5, 0.3, 1.8, -0.2, 0.6}

// Generate synthesizes the table. Runtime is O(Rows); 2M rows take on
// the order of a second.
func Generate(cfg Config) (*table.Table, error) {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	aps := airports()
	// Cumulative shares for airport sampling.
	cum := make([]float64, len(aps))
	acc := 0.0
	for i, ap := range aps {
		acc += ap.Share
		cum[i] = acc
	}
	cum[len(cum)-1] = 1

	n := cfg.Rows
	delays := make([]float64, n)
	times := make([]float64, n)
	origins := make([]string, n)
	airlines := make([]string, n)
	days := make([]string, n)
	dayNames := []string{"1", "2", "3", "4", "5", "6", "7"}

	for i := 0; i < n; i++ {
		// Airport by share.
		u := rng.Float64()
		ap := 0
		for cum[ap] < u {
			ap++
		}
		al := rng.IntN(len(Airlines))
		day := rng.IntN(7)

		// Departure time: bimodal morning/evening rush, HHMM encoding.
		var hour float64
		if rng.Float64() < 0.45 {
			hour = 9 + rng.NormFloat64()*2
		} else {
			hour = 17 + rng.NormFloat64()*2.5
		}
		if hour < 0 {
			hour = 0
		}
		if hour > 23.5 {
			hour = 23.5
		}
		minute := rng.Float64() * 60
		depTime := math.Floor(hour)*100 + minute

		// Delay: airline base + airport offset + day effect +
		// airline-specific lateness slope + noisy tail.
		delay := airlineBase[al] + aps[ap].Offset + dayOffset[day]
		if hour > 12 {
			delay += airlineSlope[al] * (hour - 12) / 11
		}
		switch r := rng.Float64(); {
		case r < 0.97:
			delay += rng.NormFloat64() * 18
		case r < 0.999997:
			delay += rng.ExpFloat64() * 50
		default:
			delay += 250 + rng.ExpFloat64()*80 // rare extreme delay
		}
		if delay > 650 {
			delay = 650
		}
		if delay < -70 {
			delay = -70 + rng.Float64()*10
		}

		delays[i] = delay
		times[i] = depTime
		origins[i] = aps[ap].Code
		airlines[i] = Airlines[al]
		days[i] = dayNames[day]
	}

	b := table.NewBuilder(Schema(), cfg.BlockSize)
	err := b.AppendColumns(
		map[string][]float64{ColDepDelay: delays, ColDepTime: times},
		map[string][]string{ColOrigin: origins, ColAirline: airlines, ColDayOfWeek: days},
	)
	if err != nil {
		return nil, err
	}
	b.WidenBounds(ColDepDelay, CatalogLo, CatalogHi)
	return b.Build(rng)
}
