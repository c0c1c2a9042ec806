package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fastframe"
	"fastframe/internal/bitmap"
	"fastframe/internal/blockstore"
	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/stats"
)

// The probes below time one layer's exported functions on fixed inputs
// taken from the table file itself. They do not depend on the workload,
// so a traced run of any workload reports the same set.

const (
	roundRows = 40_000  // the executor's rows per round
	ecdfRows  = 400_000 // wide_agg's max_rows: what a MEDIAN state retains
)

// best runs fn reps times and returns the fastest: interference only
// ever slows a fixed piece of work.
func best(reps int, fn func()) time.Duration {
	fastest := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		fastest = min(fastest, timed(fn))
	}
	return fastest
}

func fixedProbes(ctx context.Context, env *traceEnv) error {
	if err := execProbes(ctx, env); err != nil {
		return err
	}
	store, err := blockstore.Open(env.tf.path, blockstore.OpenOptions{})
	if err != nil {
		return err
	}
	defer store.Close()
	meta := store.Meta()
	delayCol, originCol := -1, -1
	userBytes := 0
	for i, c := range meta.Cols {
		switch {
		case c.Kind == blockstore.KindFloat:
			userBytes += 8 * meta.Rows
			if c.Name == "DepDelay" {
				delayCol = i
			}
		default:
			userBytes += 4 * meta.Rows
			if c.Name == "Origin" {
				originCol = i
			}
		}
	}
	if delayCol < 0 || originCol < 0 {
		return fmt.Errorf("table file has no DepDelay or Origin column")
	}
	env.fixed["blockstore.stored_bytes_per_user_byte"] = metric{float64(env.tf.fileBytes) / float64(userBytes), "ratio"}

	values, err := storeProbes(env, store, delayCol, originCol)
	if err != nil {
		return err
	}
	bounds := meta.Cols[delayCol]
	params := ci.Params{A: bounds.BoundsLo, B: bounds.BoundsHi, N: meta.Rows, Delta: tenantDelta}
	boundProbes(env, values, params)
	bitmapProbes(env, meta.Cols[originCol], meta.NumBlocks())

	loc, err := nonTestLOC(".")
	if err != nil {
		return err
	}
	env.fixed["repo.non_test_loc"] = metric{float64(loc), "lines"}
	return nil
}

// execProbes are full scans of the resident table, one per predicate
// and grouping shape: the outside view of the filter kernel and gather.
func execProbes(ctx context.Context, env *traceEnv) error {
	avg := fastframe.Avg("DepDelay")
	shapes := []struct {
		name string
		q    fastframe.QueryBuilder
	}{
		{"nopred", avg},
		{"cateq", avg.Where("Origin", "ORD")},
		{"range", avg.WhereGreater("DepTime", 1200)},
		{"group1", avg.GroupBy("Airline")},
		{"group2", avg.GroupBy("DayOfWeek", "Origin")},
	}
	scan := func(q fastframe.QueryBuilder, workers int) (time.Duration, error) {
		var err error
		d := best(2, func() {
			_, qerr := env.resident.Query(ctx, q.ScanAll(), fastframe.WithParallelism(workers), fastframe.WithDelta(tenantDelta), fastframe.WithStartBlock(0))
			if qerr != nil {
				err = qerr
			}
		})
		return d, err
	}
	rows := float64(env.resident.NumRows())
	for _, s := range shapes {
		d, err := scan(s.q, 1)
		if err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
		env.fixed["exec.probe_"+s.name+"_ns_per_row"] = metric{float64(d) / rows, "ns"}
		if s.name == "group1" {
			env.fixed["exec.par1_ms"] = metric{ms(d), "ms"}
			d2, err := scan(s.q, 2)
			if err != nil {
				return err
			}
			env.fixed["exec.par2_ms"] = metric{ms(d2), "ms"}
		}
	}
	return nil
}

// storeProbes time the block store from cold pread to warm pin and
// return ecdfRows real DepDelay values for the bounder probes.
func storeProbes(env *traceEnv, store *blockstore.Store, delayCol, originCol int) ([]float64, error) {
	meta := store.Meta()
	blocks := min(ecdfRows/meta.BlockSize, meta.NumBlocks())
	var values []float64
	var segsF, segsC [][]byte
	var fbuf []float64
	var cbuf []uint32
	var scratch []byte
	var err error

	// pread + CRC + decode, one block at a time.
	d := timed(func() {
		for b := 0; b < blocks && err == nil; b++ {
			fbuf, scratch, err = store.ReadFloatBlock(delayCol, b, fbuf, scratch)
			values = append(values, fbuf...)
		}
	})
	if err != nil {
		return nil, err
	}
	env.fixed["blockstore.read_float_block_us"] = metric{us(d) / float64(blocks), "us"}
	var codes []uint32
	d = timed(func() {
		for b := 0; b < blocks && err == nil; b++ {
			cbuf, scratch, err = store.ReadCatBlock(originCol, b, cbuf, scratch)
			codes = append(codes, cbuf...)
		}
	})
	if err != nil {
		return nil, err
	}
	env.fixed["blockstore.read_cat_block_us"] = metric{us(d) / float64(blocks), "us"}

	// Decode alone, on the segments the writer produced for these
	// blocks (re-encoded here: the codecs are deterministic).
	for b := 0; b < blocks; b++ {
		lo, hi := b*meta.BlockSize, min((b+1)*meta.BlockSize, len(values))
		segsF = append(segsF, blockstore.AppendFloatBlock(nil, values[lo:hi]))
		segsC = append(segsC, blockstore.AppendCatBlock(nil, codes[lo:hi]))
	}
	d = best(3, func() {
		for b, seg := range segsF {
			if fbuf, err = blockstore.DecodeFloatBlock(seg, fbuf, meta.BlockRows(b)); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	env.fixed["blockstore.decode_float_ns_per_row"] = metric{float64(d) / float64(len(values)), "ns"}
	d = best(3, func() {
		for b, seg := range segsC {
			if cbuf, err = blockstore.DecodeCatBlock(seg, cbuf, meta.BlockRows(b)); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	env.fixed["blockstore.decode_cat_ns_per_row"] = metric{float64(d) / float64(len(codes)), "ns"}

	// Pin + unpin through a pool of ooc_mix's size: a cold frame (first
	// touch, evicting once the budget is full), then a warm one.
	pool := blockstore.NewPool(oocPoolBytes)
	defer pool.Close()
	d = timed(func() {
		for b := 0; b < blocks && err == nil; b++ {
			var f *blockstore.Frame
			if b%2 == 0 {
				f, err = pool.PinFloat(store, delayCol, b)
			} else {
				f, err = pool.PinCat(store, originCol, b)
			}
			pool.Unpin(f)
		}
	})
	if err != nil {
		return nil, err
	}
	env.fixed["blockstore.pin_miss_us"] = metric{us(d) / float64(blocks), "us"}
	const warmPins = 200_000
	last := blocks - 1 - (blocks-1)%2 // an even block: pinned as float above, still cached
	d = timed(func() {
		for i := 0; i < warmPins && err == nil; i++ {
			var f *blockstore.Frame
			f, err = pool.PinFloat(store, delayCol, last)
			pool.Unpin(f)
		}
	})
	if err != nil {
		return nil, err
	}
	env.fixed["blockstore.pin_hit_ns"] = metric{float64(d) / warmPins, "ns"}
	return values, nil
}

// boundProbes time the four bounders on one round's worth of real
// values, the round close, and the retained-observation path.
func boundProbes(env *traceEnv, values []float64, params ci.Params) {
	batch := values[:roundRows]
	bernsteinRT := core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}
	bounders := []struct {
		name string
		b    ci.Bounder
	}{
		{"hoeffding", ci.HoeffdingSerfling{}},
		{"bernstein", ci.EmpiricalBernsteinSerfling{}},
		{"bernstein_rt", bernsteinRT},
		{"anderson", ci.AndersonDKW{}},
	}
	widths := make(map[string]float64)
	for _, bd := range bounders {
		var st ci.State
		d := best(3, func() {
			st = bd.b.NewState()
			st.UpdateBatch(batch)
		})
		env.fixed["ci.update_ns_per_row."+bd.name] = metric{float64(d) / roundRows, "ns"}
		var iv ci.Interval
		d = best(5, func() { iv = ci.BoundInterval(st, params) })
		env.fixed["ci.bound_us."+bd.name] = metric{us(d), "us"}
		widths[bd.name] = iv.Width()
	}
	env.fixed["ci.width_ratio_vs_hoeffding.bernstein_rt"] = metric{widths["bernstein_rt"] / widths["hoeffding"], "ratio"}

	// One optional-stopping round close: δ decay, bound, intersection.
	opt := core.NewOptStop(bernsteinRT, params, roundRows)
	var closes []float64
	for r := 0; r < 5; r++ {
		for _, v := range batch[:roundRows-1] {
			opt.Observe(v)
		}
		closes = append(closes, us(timed(func() {
			opt.Observe(batch[roundRows-1])
			_ = opt.Interval()
		})))
	}
	env.fixed["core.optstop_round_us"] = metric{sortedCopy(closes)[0], "us"}

	// MEDIAN's state: retain every observation, sort, invert the band.
	var sorted []float64
	d := best(2, func() {
		var e stats.ECDF
		e.AddAll(values)
		sorted = e.Sorted()
	})
	env.fixed["stats.ecdf_add_ns_per_row"] = metric{float64(d) / float64(len(values)), "ns"}
	eps := stats.DKWEpsilon(len(sorted), params.Delta)
	const reps = 1000
	d = best(3, func() {
		for i := 0; i < reps; i++ {
			stats.QuantileCI(sorted, 0.5, eps, params.A, params.B)
		}
	})
	env.fixed["stats.quantile_ci_us"] = metric{us(d) / reps, "us"}
}

// bitmapProbes time the block bitmap index the way selective scans use
// it: the union over an IN-list's codes, and one lookahead batch.
func bitmapProbes(env *traceEnv, origin blockstore.ColumnMeta, numBlocks int) {
	ix := bitmap.NewBlockIndexFromWords(origin.IndexWords, numBlocks)
	codes := []uint32{0, 1, 2, 3}
	dst := bitmap.NewBitset(numBlocks)
	const reps = 200
	d := best(3, func() {
		for i := 0; i < reps; i++ {
			ix.UnionBlocks(dst, codes)
		}
	})
	env.fixed["bitmap.union_blocks_us"] = metric{us(d) / reps, "us"}
	const batch = 1024
	mask := make([]bool, batch)
	batches := numBlocks / batch
	d = best(3, func() {
		for b := 0; b < batches; b++ {
			ix.MarkBatch(mask, b*batch, batch, codes)
		}
	})
	env.fixed["bitmap.mark_batch_us"] = metric{us(d) / float64(batches), "us"}
}

// nonTestLOC counts the lines of non-test Go files outside bench/: the
// trend line of the roadmap's "least code" aim.
func nonTestLOC(root string) (int, error) {
	lines := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += strings.Count(string(raw), "\n")
		return nil
	})
	return lines, err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
