package gdk

import (
	"repro/internal/bat"
	"repro/internal/par"
)

// Encoded-direct aggregation.
//
// When group ids are sorted (the product of run-detected grouping) and the
// value column is integer RLE, each intersection of a value run with a
// group run contributes value*count to the group's sum in one multiply —
// the run payload is never decoded. Integer addition wraps mod 2^64
// exactly like repeated addition does, so the multiply form is
// bit-identical to the row loop; the same is NOT true of floats, which
// keep the decoded sequential-add path.

// encIntRunAggr computes sum/avg/min/max over sorted group ids for an
// encoded NULL-free int column. ok is false for aggregates it does not
// cover (callers fall back to the decoded run path).
func encIntRunAggr(job *par.Job, agg AggKind, vals *bat.BAT, gs []int64, ngroups int) (*bat.BAT, bool) {
	switch agg {
	case AggSum, AggAvg:
		sums := make([]int64, ngroups)
		counts := make([]int64, ngroups)
		encIntRunFold(job, vals, gs, func(g, v int64, cnt int) {
			sums[g] += v * int64(cnt)
			counts[g] += int64(cnt)
		})
		if agg == AggSum {
			out := bat.FromInts(sums)
			markEmpty(out, counts)
			return out, true
		}
		avgs := make([]float64, ngroups)
		for g := range avgs {
			if counts[g] > 0 {
				avgs[g] = float64(sums[g]) / float64(counts[g])
			}
		}
		out := bat.FromFloats(avgs)
		markEmpty(out, counts)
		return out, true
	case AggMin, AggMax:
		best := make([]int64, ngroups)
		seen := make([]bool, ngroups)
		encIntRunFold(job, vals, gs, func(g, v int64, cnt int) {
			if !seen[g] || (agg == AggMin && v < best[g]) || (agg == AggMax && v > best[g]) {
				best[g] = v
				seen[g] = true
			}
		})
		out := bat.FromInts(best)
		markUnseen(out, seen)
		return out, true
	}
	return nil, false
}

// encIntRunFold walks the column slab by slab and emits maximal
// constant-(group, value) stretches: RLE slabs intersect their runs with
// the group runs directly; other slabs decode into a reused scratch
// buffer and emit row-wise.
func encIntRunFold(job *par.Job, vals *bat.BAT, gs []int64, emit func(g, v int64, cnt int)) {
	var scratch []int64
	for s := 0; s < vals.NumSlabs(); s++ {
		sv := vals.Slab(job, s)
		start := sv.Start()
		if rv, lens, ok := sv.IntRuns(); ok {
			p := start
			for ri, l := range lens {
				re := p + int(l)
				v := rv[ri]
				for p < re {
					g := gs[p]
					q := p + 1
					for q < re && gs[q] == g {
						q++
					}
					emit(g, v, q-p)
					p = q
				}
			}
			continue
		}
		dec := sv.Ints(scratch)
		if sv.Enc() != bat.EncPlain {
			scratch = dec
		}
		for i, v := range dec {
			emit(gs[start+i], v, 1)
		}
	}
}
