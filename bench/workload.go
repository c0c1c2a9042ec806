package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
)

// A template is one statement shape of a workload. Every request drawn
// from it carries the approximate statement (sql + args) the server
// runs and the tail-free statement (exactSQL + exactArgs) whose exact
// answer is the ground truth for the returned intervals.
type template struct {
	name     string
	sql      string
	exactSQL string
	// draw returns the request's bind arguments and the subset that
	// binds exactSQL. uniq is the request's index, for templates that
	// must render a text the plan cache has never seen.
	draw func(r *rand.Rand, uniq int) (args, exactArgs []any)
	// weight is how many requests of this template one cycle holds.
	weight int
	// inline renders the arguments into the text as literals instead of
	// sending them as args, so the text is unique per request.
	inline bool
	// decision names the stopping rule whose verdict is checked against
	// the exact ordering when the server reports stopped.
	decision decisionKind
	// k is the LIMIT of a top-/bottom-k template; the HAVING threshold
	// of a decideHaving template is the request's last argument.
	k int
	// maxRows is the max_rows the request carries (0 = none).
	maxRows int
}

type decisionKind int

const (
	decideNone decisionKind = iota
	decideHaving
	decideTopK
	decideBottomK
)

// A workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// poolBytes is ffserved's -pool-bytes: 0 keeps the table resident.
	poolBytes int64
	// count is the length of the generated request list: the work of a
	// fixed-count run (-seconds 0) and more than a timed run can finish.
	count int
	// traceCount is how many leading requests the traced run replays.
	traceCount int
	// salt separates the workloads' random streams; ooc_mix shares
	// resident_mix's so both replay the identical list.
	salt      uint64
	templates []template
}

// request is one generated request, encoded once so the client loop
// only writes bytes.
type request struct {
	index    int
	template int
	stream   bool // odd indexes go to /v1/stream, even to /v1/query
	body     []byte
	sql      string
	args     []any
	truthKey string
	exactSQL string
	exactArg []any
	decision decisionKind
	k        int
	v        float64 // HAVING threshold
}

// Head airports carry 1.5 %–6.5 % of the rows each, so a selective
// Origin = ? query stops early at any of them; the sparse tail would
// exhaust the table and is reached through GROUP BY Origin instead.
var headAirports = []string{
	"ORD", "ATL", "DFW", "LAX", "PHX", "DEN", "DTW", "IAH", "MSP", "SFO",
	"EWR", "STL", "CLT", "LAS", "PHL", "PIT", "SLC", "SEA", "MCO", "BOS",
	"CVG", "LGA", "DCA", "BWI",
}

// depTimes is the grid the DepTime > ? bounds come from (HHMM). A grid
// rather than a continuous draw keeps the number of distinct ground
// truths, each a full exact scan, small.
var depTimes = []float64{600, 800, 1000, 1200, 1400, 1600}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

// between draws a WITHIN percentage uniformly from [lo, hi). A
// continuous draw spreads a template's requests over neighbouring
// round counts, so the round at which one fixed percentage happens to
// stop on one seed's table does not move the whole class.
func between(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// uniqueTail turns a request index into a fraction below 0.1 with
// distinct digits per index, added to a WITHIN percentage or a HAVING
// threshold to make an inlined text unique without moving its answer.
func uniqueTail(uniq int) float64 { return float64(uniq%1_000_000+1) * 1e-7 }

const (
	selAvg   = "SELECT AVG(DepDelay) FROM flights"
	selCount = "SELECT COUNT(*) FROM flights"
)

// heavyRows caps the four decision-rule shapes of the mix (max_rows):
// uncapped they cover 1 M to 4 M rows each, and out-of-core a timed run
// would then finish too few requests to have ten samples beyond p95.
const heavyRows = 400_000

// p50Rows caps the statement p50 falls in. ffserved starts every
// solo scan at the one block its seed draws, so all queries of a run
// see the same sample of the table, and how soon the bounders can stop
// SUM … GROUP BY DayOfWeek on that sample moved tts_p50_ms by ±12 %
// from seed to seed. With the cap a request stops by its own rule
// within four rounds or is cut there; the cost of that luck still
// shows in blocks_per_query, qps and CPU per query, which are means.
const p50Rows = 160_000

// mixTemplates are the paper's F-q1…F-q9 shapes in SQL, shared by
// resident_mix and ooc_mix. A percentile that falls on the edge between
// two statements of different cost jumps between them from seed to
// seed, so the weights put p50 and p95 inside one statement's share on
// both workloads, which order the statements differently. Sorted by
// cost, SUM … GROUP BY DayOfWeek (8/22, 4–9 rounds by its own rule)
// spans 32 %–68 % of the resident requests and 27 %–64 % of the
// out-of-core ones; the dearest statement spans the last 9 % on both:
// GROUP BY Origin top-1 resident, bottom-2 with its third column
// out-of-core. The rest are light statements that stop within 3 rounds
// (6/22), medium ones (4/22 beside the SUM) and the decision rules,
// which run to the heavyRows cap (6/22).
func mixTemplates() []template {
	return []template{
		{
			name: "count_deptime", weight: 1,
			sql:      selCount + " WHERE DepTime > ? WITHIN ?%",
			exactSQL: selCount + " WHERE DepTime > ?",
			draw: func(r *rand.Rand, _ int) ([]any, []any) {
				t := pick(r, depTimes)
				return []any{t, between(r, 2, 5)}, []any{t}
			},
		},
		{
			name: "origin_avg_loose", weight: 2,
			sql:      selAvg + " WHERE Origin = ? WITHIN ?%",
			exactSQL: selAvg + " WHERE Origin = ?",
			draw: func(r *rand.Rand, _ int) ([]any, []any) {
				o := pick(r, headAirports[:8])
				return []any{o, between(r, 50, 80)}, []any{o}
			},
		},
		{
			name: "avg_within_loose", weight: 1,
			sql:      selAvg + " WITHIN ?%",
			exactSQL: selAvg,
			draw: func(r *rand.Rand, _ int) ([]any, []any) {
				return []any{between(r, 4.5, 6)}, nil
			},
		},
		{
			name: "sum_by_day", weight: 8, maxRows: p50Rows,
			sql:      "SELECT SUM(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN ?%",
			exactSQL: "SELECT SUM(DepDelay) FROM flights GROUP BY DayOfWeek",
			draw: func(r *rand.Rand, _ int) ([]any, []any) {
				return []any{between(r, 25, 45)}, nil
			},
		},
		{
			name: "airline_having_far", weight: 1, decision: decideHaving,
			sql:      selAvg + " GROUP BY Airline HAVING AVG(DepDelay) > ?",
			exactSQL: selAvg + " GROUP BY Airline",
			draw: func(r *rand.Rand, _ int) ([]any, []any) {
				// Airline means lie on 4.3…16.3: both thresholds are
				// far from every one of them.
				return []any{pick(r, []float64{-5, 30})}, nil
			},
		},
		{
			name: "avg_within_tight", weight: 1,
			sql:      selAvg + " WITHIN ?%",
			exactSQL: selAvg,
			draw:     func(r *rand.Rand, _ int) ([]any, []any) { return []any{between(r, 2.5, 3.5)}, nil },
		},
		{
			name: "origin_avg_tight", weight: 2,
			sql:      selAvg + " WHERE Origin = ? WITHIN ?%",
			exactSQL: selAvg + " WHERE Origin = ?",
			draw: func(r *rand.Rand, _ int) ([]any, []any) {
				o := pick(r, headAirports[:3])
				return []any{o, between(r, 15, 25)}, []any{o}
			},
		},
		{
			name: "airline_having_near", weight: 1, decision: decideHaving, maxRows: heavyRows,
			sql:      selAvg + " GROUP BY Airline HAVING AVG(DepDelay) > ?",
			exactSQL: selAvg + " GROUP BY Airline",
			draw: func(r *rand.Rand, _ int) ([]any, []any) {
				// Airline means sit ≈1.3 apart; each threshold falls
				// between two of them.
				return []any{pick(r, []float64{5, 9, 13})}, nil
			},
		},
		{
			name: "deptime_bottom2", weight: 2, decision: decideBottomK, k: 2, maxRows: heavyRows,
			sql:      selAvg + " WHERE DepTime > ? GROUP BY Airline ORDER BY AVG(DepDelay) ASC LIMIT 2",
			exactSQL: selAvg + " WHERE DepTime > ? GROUP BY Airline",
			draw: func(r *rand.Rand, _ int) ([]any, []any) {
				t := pick(r, depTimes)
				return []any{t}, []any{t}
			},
		},
		{
			name: "origin_top1", weight: 2, decision: decideTopK, k: 1, maxRows: heavyRows,
			sql:      selAvg + " GROUP BY Origin ORDER BY AVG(DepDelay) DESC LIMIT 1",
			exactSQL: selAvg + " GROUP BY Origin",
			draw:     func(*rand.Rand, int) ([]any, []any) { return nil, nil },
		},
		{
			name: "airline_top1", weight: 1, decision: decideTopK, k: 1, maxRows: heavyRows,
			sql:      selAvg + " GROUP BY Airline ORDER BY AVG(DepDelay) DESC LIMIT 1",
			exactSQL: selAvg + " GROUP BY Airline",
			draw:     func(*rand.Rand, int) ([]any, []any) { return nil, nil },
		},
	}
}

// pointTemplates are four loose statements that stop within three
// rounds; each appears as a reused text (nine parts) and as an inlined,
// never-seen text (one part), so one request in ten misses the plan
// cache and pays the full lex/parse/plan. origin_loose has four times
// the others' share: sorted by cost it then spans 29 %–86 % of the
// requests, so p50 falls well inside it, and p95 falls near the middle
// of airline_having0's last seventh rather than in its tail, where a
// starved CPU shows first.
func pointTemplates() []template {
	base := []template{
		{
			name: "avg_loose", weight: 1,
			sql:      selAvg + " WITHIN ?%",
			exactSQL: selAvg,
			draw: func(_ *rand.Rand, uniq int) ([]any, []any) {
				return []any{20 + uniqueTail(uniq)}, nil
			},
		},
		{
			name: "origin_loose", weight: 4,
			sql:      selAvg + " WHERE Origin = ? WITHIN ?%",
			exactSQL: selAvg + " WHERE Origin = ?",
			draw: func(r *rand.Rand, uniq int) ([]any, []any) {
				o := pick(r, headAirports[:12])
				return []any{o, between(r, 40, 70) + uniqueTail(uniq)}, []any{o}
			},
		},
		{
			name: "count_loose", weight: 1,
			sql:      selCount + " WHERE DepTime > ? WITHIN ?%",
			exactSQL: selCount + " WHERE DepTime > ?",
			draw: func(r *rand.Rand, uniq int) ([]any, []any) {
				t := pick(r, depTimes)
				return []any{t, 10 + uniqueTail(uniq)}, []any{t}
			},
		},
		{
			name: "airline_having0", weight: 1, decision: decideHaving,
			sql:      selAvg + " GROUP BY Airline HAVING AVG(DepDelay) > ?",
			exactSQL: selAvg + " GROUP BY Airline",
			draw: func(_ *rand.Rand, uniq int) ([]any, []any) {
				return []any{uniqueTail(uniq)}, nil
			},
		},
	}
	var out []template
	for _, t := range base {
		hit := t
		hit.weight = 9 * t.weight
		miss := t
		miss.name += "_inline"
		miss.inline = true
		out = append(out, hit, miss)
	}
	return out
}

// wideTemplates retain observations (MEDIAN, PERCENTILE), keep several
// states per group (VAR, STDDEV, COUNT DISTINCT) or return hundreds of
// groups, so bound computation, allocation and payload size dominate.
// The weights favour the cheaper templates, so p50 falls among them
// and p95 inside the dearest (VAR + STDDEV over 420 groups).
func wideTemplates() []template {
	// wideRows keeps one statement near 20 ms; unbounded, the MEDIAN one
	// alone runs for seconds. MEDIAN sorts everything it has retained at
	// every round, so it gets a third of the rows to cost about what
	// the others do: at 400 000 rows it is three times dearer than the
	// rest and alone sets p95.
	const (
		wideRows   = 400_000
		medianRows = 160_000
	)
	const wide = "SELECT AVG(DepDelay), VAR(DepDelay), STDDEV(DepDelay) FROM flights GROUP BY DayOfWeek, Origin"
	return []template{
		{
			name: "avg_median_by_airline", weight: 1, maxRows: medianRows,
			sql:      "SELECT AVG(DepDelay), MEDIAN(DepDelay) FROM flights GROUP BY Airline",
			exactSQL: "SELECT AVG(DepDelay), MEDIAN(DepDelay) FROM flights GROUP BY Airline",
			draw:     func(*rand.Rand, int) ([]any, []any) { return nil, nil },
		},
		{
			name: "avg_var_stddev_by_day_origin", weight: 1, maxRows: wideRows,
			sql: wide, exactSQL: wide,
			draw: func(*rand.Rand, int) ([]any, []any) { return nil, nil },
		},
		{
			name: "p90_origin", weight: 2, maxRows: wideRows,
			sql:      "SELECT PERCENTILE(DepDelay, 0.9) FROM flights WHERE Origin = ?",
			exactSQL: "SELECT PERCENTILE(DepDelay, 0.9) FROM flights WHERE Origin = ?",
			draw: func(r *rand.Rand, _ int) ([]any, []any) {
				o := pick(r, headAirports[:12])
				return []any{o}, []any{o}
			},
		},
		{
			name: "distinct_avg_by_airline", weight: 1, maxRows: wideRows,
			sql:      "SELECT COUNT(DISTINCT Origin), AVG(DepDelay) FROM flights GROUP BY Airline",
			exactSQL: "SELECT COUNT(DISTINCT Origin), AVG(DepDelay) FROM flights GROUP BY Airline",
			draw:     func(*rand.Rand, int) ([]any, []any) { return nil, nil },
		},
		{
			name: "day_origin_top5", weight: 3, decision: decideTopK, k: 5, maxRows: wideRows,
			sql:      selAvg + " GROUP BY DayOfWeek, Origin ORDER BY AVG(DepDelay) DESC LIMIT 5",
			exactSQL: selAvg + " GROUP BY DayOfWeek, Origin",
			draw:     func(*rand.Rand, int) ([]any, []any) { return nil, nil },
		},
	}
}

// workloads lists the four mixes. Names and order are the contract
// BENCHMARK.json and later issues cite; BENCHMARK.json says why each
// exists.
func workloads() []workload {
	return []workload{
		{
			name: "resident_mix", count: 3000, traceCount: 200, salt: 0x6d6978,
			templates: mixTemplates(),
		},
		{
			name: "ooc_mix", count: 3000, traceCount: 60, salt: 0x6d6978, poolBytes: 8 << 20,
			templates: mixTemplates(),
		},
		{
			name: "short_point", count: 40000, traceCount: 200, salt: 0x706f696e74,
			templates: pointTemplates(),
		},
		{
			name: "wide_agg", count: 1500, traceCount: 60, salt: 0x77696465,
			templates: wideTemplates(),
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generate builds the workload's request list from the seed. The list
// is a sequence of cycles; a cycle holds every template weight times in
// a seed-shuffled order, so any prefix of the list has the same mix.
func (w workload) generate(seed uint64) []request {
	r := rand.New(rand.NewPCG(seed, w.salt))
	var cycle []int
	for ti, t := range w.templates {
		for k := 0; k < t.weight; k++ {
			cycle = append(cycle, ti)
		}
	}
	out := make([]request, 0, w.count)
	for len(out) < w.count {
		r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for _, ti := range cycle {
			if len(out) == w.count {
				break
			}
			out = append(out, w.newRequest(r, len(out), ti))
		}
	}
	return out
}

func (w workload) newRequest(r *rand.Rand, index, ti int) request {
	t := w.templates[ti]
	args, exactArgs := t.draw(r, index)
	req := request{
		index: index, template: ti, stream: index%2 == 1,
		sql: t.sql, args: args,
		exactSQL: t.exactSQL, exactArg: exactArgs,
		decision: t.decision, k: t.k,
	}
	if t.decision == decideHaving {
		req.v = args[len(args)-1].(float64)
	}
	if t.inline {
		req.sql, req.args = inlineArgs(t.sql, args), nil
	}
	body := map[string]any{"sql": req.sql}
	if len(req.args) > 0 {
		body["args"] = req.args
	}
	if t.maxRows > 0 {
		body["max_rows"] = t.maxRows
	}
	var err error
	if req.body, err = json.Marshal(body); err != nil {
		panic(err) // strings and finite floats always encode
	}
	req.truthKey = truthKey(t.exactSQL, exactArgs)
	return req
}

func truthKey(exactSQL string, exactArgs []any) string {
	return exactSQL + "\x00" + fmt.Sprint(exactArgs...)
}

// inlineArgs replaces each ? of sql with the literal form of the
// matching argument.
func inlineArgs(sql string, args []any) string {
	var b strings.Builder
	next := 0
	for i := 0; i < len(sql); i++ {
		if sql[i] != '?' {
			b.WriteByte(sql[i])
			continue
		}
		switch v := args[next].(type) {
		case string:
			b.WriteString("'" + strings.ReplaceAll(v, "'", "''") + "'")
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
		default:
			panic(fmt.Sprintf("inlineArgs: unsupported argument %T", v))
		}
		next++
	}
	return b.String()
}
