package fastframe

import (
	"errors"

	"fastframe/internal/ci"
	"fastframe/internal/core"
)

// MeanEstimator is the standalone streaming form of the paper's CI
// machinery, usable without the column store: feed it values sampled
// WITHOUT replacement from a finite dataset known to lie in [A, B], and
// read an anytime-valid confidence interval for the dataset mean at any
// moment. Intervals remain simultaneously valid across all reads with
// total error probability Delta (the optional-stopping construction of
// Algorithm 5), so it is safe to stop as soon as the interval looks good.
//
// The zero value is not usable; construct with NewMeanEstimator.
type MeanEstimator struct {
	opt *core.OptStop
}

// EstimatorConfig configures a MeanEstimator.
type EstimatorConfig struct {
	// A, B bound every dataset value (required: A < B).
	A, B float64
	// N is the dataset size, or an upper bound on it; 0 means unknown
	// (the with-replacement-safe bound is used).
	N int
	// Delta is the total error probability across the whole stream, in
	// [0, 1); 0 selects the default 1e−15.
	Delta float64
	// Bounder selects the CI technique (default BernsteinRT).
	Bounder Bounder
	// BatchRows is R (default 40000): the interval is recomputed — a
	// look — after R/16, R/8, R/4 and R/2 observations, then every R.
	// Smaller batches react faster and spend the δ-budget faster.
	BatchRows int
}

// NewMeanEstimator returns an estimator for the given configuration.
func NewMeanEstimator(cfg EstimatorConfig) (*MeanEstimator, error) {
	if !(cfg.A < cfg.B) {
		return nil, errors.New("fastframe: estimator requires A < B")
	}
	if err := checkDelta(cfg.Delta); err != nil {
		return nil, err
	}
	if cfg.Delta == 0 {
		cfg.Delta = 1e-15
	}
	b, err := cfg.Bounder.impl()
	if err != nil {
		return nil, err
	}
	opt := core.NewOptStop(b, ci.Params{A: cfg.A, B: cfg.B, N: cfg.N, Delta: cfg.Delta}, cfg.BatchRows)
	return &MeanEstimator{opt: opt}, nil
}

// Observe incorporates one sampled value.
func (m *MeanEstimator) Observe(v float64) { m.opt.Observe(v) }

// Interval returns the current anytime-valid confidence interval for
// the dataset mean. It forces a look ahead of the schedule, so calling
// it very frequently spends the δ-budget faster than necessary (each
// call spends the next look's share).
func (m *MeanEstimator) Interval() Interval {
	m.opt.CloseRound()
	return fromCI(m.opt.Interval())
}

// Samples returns the number of observations so far.
func (m *MeanEstimator) Samples() int { return m.opt.Samples() }
