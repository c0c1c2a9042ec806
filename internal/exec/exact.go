package exec

import (
	"context"

	"fastframe/internal/ci"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// RunExact evaluates q exactly, ignoring its stopping rule: the paper's
// Exact baseline, which is this engine with approximation off and the
// strategy fixed to Scan. It is RunContext run to exhaustion — every view
// finalizes exact, so an answer's Estimate is the exact value and Samples
// the view's row count — under the cheapest existing settings: the
// Hoeffding–Serfling state, a scan from block 0, and a round as long
// as the table, which leaves five looks (R/16, R/8, R/4, R/2, R) where
// the default schedule would re-sort every retained MEDIAN/PERCENTILE
// sample each 40 000 rows. The looks are where ctx is checked: an exact
// answer has no valid partial form, so a run cancelled mid-scan returns
// ctx.Err() at the next look, never a Result.
func RunExact(ctx context.Context, t *table.Table, q query.Query) (*Result, error) {
	q.Stop = query.Exhaust()
	res, err := RunContext(ctx, t, q, Options{
		Bounder:   ci.HoeffdingSerfling{},
		Strategy:  Scan,
		RoundRows: t.NumRows(),
	})
	if err != nil {
		return nil, err
	}
	if res.Aborted {
		return nil, ctx.Err()
	}
	return res, nil
}
