package gdk

import (
	"cmp"
	"fmt"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// AggKind names an aggregate function.
type AggKind string

// Supported aggregates.
const (
	AggSum      AggKind = "sum"
	AggCount    AggKind = "count"    // COUNT(col): non-NULL rows
	AggCountAll AggKind = "countall" // COUNT(*): all rows
	AggAvg      AggKind = "avg"
	AggMin      AggKind = "min"
	AggMax      AggKind = "max"
)

// AggResultKind returns the value kind an aggregate produces for an input
// of kind k.
func AggResultKind(agg AggKind, k types.Kind) (types.Kind, error) {
	switch agg {
	case AggCount, AggCountAll:
		return types.KindInt, nil
	case AggAvg:
		return types.KindFloat, nil
	case AggSum, AggMin, AggMax:
		switch k {
		case types.KindInt, types.KindOID, types.KindVoid:
			return types.KindInt, nil
		case types.KindFloat:
			return types.KindFloat, nil
		case types.KindStr, types.KindBool:
			if agg == AggMin || agg == AggMax {
				return k, nil
			}
		}
		return 0, fmt.Errorf("aggregate %s not defined on %s", agg, k)
	default:
		return 0, fmt.Errorf("unknown aggregate %q", agg)
	}
}

// aggrPlan partitions the rows for a grouped aggregate. Each chunk owns a
// private ngroups-sized partial state, so the plan stays serial when the
// partial states would dwarf the input (many tiny groups, e.g. per-cell
// structural grouping) — there the merge would cost more than the scan.
func aggrPlan(job *par.Job, n, ngroups int) par.Plan {
	plan := par.NewPlan(job, n)
	if plan.Parallel() && ngroups*plan.Chunks() > 4*n {
		return par.Serial(job, n)
	}
	return plan
}

// gidSlice normalises the group-id column to a plain int64 slice.
func gidSlice(job *par.Job, gids *bat.BAT) []int64 {
	if gids.Kind() == types.KindVoid {
		return gids.Materialize().DecodedInts(job)
	}
	return gids.DecodedInts(job)
}

// SubAggr computes a grouped aggregate (MAL aggr.sub*): vals and gids are
// aligned; the result has one row per group id in [0, ngroups).
// NULL input rows are ignored; a group with no non-NULL input yields NULL
// (count yields 0), per SQL semantics and §2 of the paper ("holes and cells
// outside the array dimension ranges are ignored by the aggregation").
//
// When cand is non-nil, vals is base-aligned and only the candidate rows
// feed the aggregate; gids must already be candidate-aligned (as produced
// by Group with the same candidate list). This is the late-materialization
// sink for aggregation inputs: the value column is gathered exactly once,
// here.
//
// Above the morsel threshold, each worker accumulates morsel-local partial
// aggregates which are merged group-wise at the end (when the group count
// permits, see aggrPlan).
func SubAggr(job *par.Job, agg AggKind, vals, gids *bat.BAT, ngroups int, cand *bat.BAT) (*bat.BAT, error) {
	if cand != nil && vals != nil {
		var err error
		if vals, err = Project(job, cand, vals); err != nil {
			return nil, err
		}
	}
	if vals != nil && gids.Len() != vals.Len() {
		return nil, fmt.Errorf("gdk: aggregate inputs not aligned")
	}
	n := gids.Len()
	gs := gidSlice(job, gids)

	// Sorted group ids (the product of run-detected grouping) cluster each
	// group into one contiguous run: counts, and the aggregates of an
	// encoded int column, accumulate per run and store once, instead of
	// chunked ngroups-sized partials merged after. The results are
	// bit-identical to the generic paths'.
	sortedRuns := gids.Sorted && !gids.HasNulls() && n > 0

	switch agg {
	case AggCountAll, AggCount:
		if agg == AggCountAll {
			vals = nil
		}
		if sortedRuns {
			return runCounts(gs, ngroups, vals), nil
		}
		counts, err := countPartials(job, n, ngroups, gs, vals)
		if err != nil {
			return nil, err
		}
		return bat.FromInts(counts), nil
	}

	// RLE-encoded int input accumulates whole (value-run x group-run)
	// intersections without decoding (see enc_aggr.go).
	if sortedRuns && vals.Kind() != types.KindVoid && vals.Encoded() && !vals.HasNulls() &&
		(vals.ValueKind() == types.KindInt || vals.ValueKind() == types.KindOID) {
		if out, ok := encIntRunAggr(job, agg, vals, gs, ngroups); ok {
			return out, nil
		}
	}

	switch vals.ValueKind() {
	case types.KindInt, types.KindOID:
		ints := intVals(job, vals)
		switch agg {
		case AggSum, AggAvg:
			// Integer addition associates: any chunking gives the same sums.
			sums, counts, err := groupSums(aggrPlan(job, n, ngroups), ints, vals, gs, ngroups)
			if err != nil {
				return nil, err
			}
			if agg == AggSum {
				out := bat.FromInts(sums)
				markEmpty(out, counts)
				return out, nil
			}
			avgs := make([]float64, ngroups)
			for g := range avgs {
				if counts[g] > 0 {
					avgs[g] = float64(sums[g]) / float64(counts[g])
				}
			}
			out := bat.FromFloats(avgs)
			markEmpty(out, counts)
			return out, nil
		case AggMin, AggMax:
			return minMaxGroups(aggrPlan(job, n, ngroups), agg, ints, vals, gs, ngroups, bat.FromInts)
		}
	case types.KindFloat:
		fs := vals.DecodedFloats(job)
		switch agg {
		case AggSum, AggAvg:
			sums, counts, err := groupSums(par.Blocks(job, n, sumBlockRows), fs, vals, gs, ngroups)
			if err != nil {
				return nil, err
			}
			if agg == AggAvg {
				for g := range sums {
					if counts[g] > 0 {
						sums[g] /= float64(counts[g])
					}
				}
			}
			out := bat.FromFloats(sums)
			markEmpty(out, counts)
			return out, nil
		case AggMin, AggMax:
			return minMaxGroups(aggrPlan(job, n, ngroups), agg, fs, vals, gs, ngroups, bat.FromFloats)
		}
	case types.KindStr:
		if agg == AggMin || agg == AggMax {
			return minMaxGroups(aggrPlan(job, n, ngroups), agg, vals.DecodedStrs(job), vals, gs, ngroups, bat.FromStrings)
		}
	}
	return nil, fmt.Errorf("gdk: aggregate %s not defined on %s", agg, vals.ValueKind())
}

// minMaxGroups computes a grouped MIN or MAX: each chunk of plan folds its
// rows into private per-group partials (see beats), which merge in
// ascending chunk order. mk wraps the per-group values in a column.
func minMaxGroups[T cmp.Ordered](plan par.Plan, agg AggKind, xs []T, vals *bat.BAT, gs []int64, ngroups int, mk func([]T) *bat.BAT) (*bat.BAT, error) {
	isMin, job := agg == AggMin, plan.Job()
	bestP := make([][]T, plan.Chunks())
	seenP := make([][]bool, plan.Chunks())
	err := plan.RunErr(func(c, lo, hi int) error {
		best := make([]T, ngroups)
		seen := make([]bool, ngroups)
		pollBlocks(job, lo, hi, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if vals.IsNull(i) {
					continue
				}
				if g, v := gs[i], xs[i]; !seen[g] || beats(isMin, v, best[g]) {
					best[g], seen[g] = v, true
				}
			}
		})
		bestP[c], seenP[c] = best, seen
		return nil
	})
	if err != nil {
		return nil, err
	}
	best, seen := bestP[0], seenP[0]
	for c := 1; c < len(bestP); c++ {
		for g := 0; g < ngroups; g++ {
			if v := bestP[c][g]; seenP[c][g] && (!seen[g] || beats(isMin, v, best[g])) {
				best[g], seen[g] = v, true
			}
		}
	}
	out := mk(best)
	markUnseen(out, seen)
	return out, nil
}

// pollBlocks runs fn over [lo, hi) in 4096-row blocks and checks job
// before each, so the row loop inside fn stays free of the check. It
// reports false, leaving the rest undone, once job is cancelled.
func pollBlocks(job *par.Job, lo, hi int, fn func(lo, hi int)) bool {
	for ; lo < hi; lo += 1 << 12 {
		if job.Canceled() {
			return false
		}
		fn(lo, min(lo+1<<12, hi))
	}
	return true
}

// beats reports whether v replaces best as a MIN (isMin) or a MAX under
// ORDER BY's total order, in which NaN sorts above every number: MIN
// skips NaN unless every value is NaN, and MAX is NaN when any value is.
// Ties keep best, the earlier row, so the fold gives the same answer
// whatever the chunking.
func beats[T cmp.Ordered](isMin bool, v, best T) bool {
	if isMin {
		return v < best || (best != best && v == v)
	}
	return v > best || (v != v && best == best)
}

// sumBlockRows is the block size of the canonical float summation order.
const sumBlockRows = 1 << 16

// groupSums returns per-group sums and non-NULL counts. Each chunk of plan
// folds its rows left to right into private partials, and each group adds
// its chunk partials in ascending chunk order, every accumulator starting
// at zero. Float sums take fixed sumBlockRows-row blocks as chunks
// (par.Blocks), which makes this the one canonical float summation order:
// a function of the data alone, not of the thread count, the morsel
// threshold or the statistics. When the partials would dwarf the input
// (many groups), one serial pass gives the same sums: it flushes a group's
// partial into its total when the group first shows up in a later chunk
// (a chunk without the group would add a zero partial, which changes
// nothing).
func groupSums[T int64 | float64](plan par.Plan, xs []T, vals *bat.BAT, gs []int64, ngroups int) ([]T, []int64, error) {
	var nulls *bat.Bitmap
	if vals.HasNulls() {
		nulls = vals.NullMask()
	}
	job := plan.Job()
	if plan.Chunks() == 1 || ngroups*plan.Chunks() <= 4*len(gs) {
		sumsP := make([][]T, plan.Chunks())
		countsP := make([][]int64, plan.Chunks())
		err := plan.RunErr(func(c, lo, hi int) error {
			sums := make([]T, ngroups)
			counts := make([]int64, ngroups)
			pollBlocks(job, lo, hi, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if nulls != nil && nulls.Get(i) {
						continue
					}
					g := gs[i]
					sums[g] += xs[i]
					counts[g]++
				}
			})
			sumsP[c], countsP[c] = sums, counts
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		return mergeAdd(sumsP, ngroups), mergeAdd(countsP, ngroups), nil
	}
	sums, part := make([]T, ngroups), make([]T, ngroups)
	counts := make([]int64, ngroups)
	last := make([]int32, ngroups) // chunk of part[g] + 1; 0 = none yet
	if !pollBlocks(job, 0, len(gs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if nulls != nil && nulls.Get(i) {
				continue
			}
			g, c := gs[i], int32(i/plan.Size)+1
			if last[g] != c {
				sums[g] += part[g]
				part[g], last[g] = 0, c
			}
			part[g] += xs[i]
			counts[g]++
		}
	}) {
		return nil, nil, par.ErrCanceled
	}
	for g := range sums {
		sums[g] += part[g]
	}
	return sums, counts, nil
}

// runCounts counts rows (all rows when vals is nil, non-NULL rows
// otherwise) per group over sorted group ids: one run-detecting pass.
func runCounts(gs []int64, ngroups int, vals *bat.BAT) *bat.BAT {
	counts := make([]int64, ngroups)
	for i := 0; i < len(gs); {
		g := gs[i]
		j := i
		var c int64
		if vals == nil {
			for j < len(gs) && gs[j] == g {
				j++
			}
			c = int64(j - i)
		} else {
			for ; j < len(gs) && gs[j] == g; j++ {
				if !vals.IsNull(j) {
					c++
				}
			}
		}
		counts[g] += c
		i = j
	}
	return bat.FromInts(counts)
}

// countPartials counts rows (all rows when vals is nil, non-NULL rows
// otherwise) per group with chunk-local partials.
func countPartials(job *par.Job, n, ngroups int, gs []int64, vals *bat.BAT) ([]int64, error) {
	plan := aggrPlan(job, n, ngroups)
	parts := make([][]int64, plan.Chunks())
	err := plan.RunErr(func(c, lo, hi int) error {
		counts := make([]int64, ngroups)
		pollBlocks(job, lo, hi, func(lo, hi int) {
			if vals == nil {
				for _, g := range gs[lo:hi] {
					counts[g]++
				}
				return
			}
			for i := lo; i < hi; i++ {
				if !vals.IsNull(i) {
					counts[gs[i]]++
				}
			}
		})
		parts[c] = counts
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeAdd(parts, ngroups), nil
}

// mergeAdd sums chunk partials element-wise into the first partial.
func mergeAdd[T int64 | float64](parts [][]T, ngroups int) []T {
	out := parts[0]
	for c := 1; c < len(parts); c++ {
		for g := 0; g < ngroups; g++ {
			out[g] += parts[c][g]
		}
	}
	return out
}

// markEmpty nulls groups with no non-NULL input rows.
func markEmpty(out *bat.BAT, counts []int64) {
	for g, c := range counts {
		if c == 0 {
			out.SetNull(g, true)
		}
	}
}

// markUnseen nulls groups no row contributed to.
func markUnseen(out *bat.BAT, seen []bool) {
	for g, s := range seen {
		if !s {
			out.SetNull(g, true)
		}
	}
}
