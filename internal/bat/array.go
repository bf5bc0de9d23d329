package bat

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/types"
)

// SeriesLen returns the number of distinct values in the dimension range
// [start:step:stop) (right-open, per the SciQL definition in §2 of the paper).
func SeriesLen(start, step, stop int64) (int, error) {
	if step == 0 {
		return 0, fmt.Errorf("array.series: step must be non-zero")
	}
	if step > 0 {
		if stop <= start {
			return 0, nil
		}
		return int((stop - start + step - 1) / step), nil
	}
	if stop >= start {
		return 0, nil
	}
	neg := -step
	return int((start - stop + neg - 1) / neg), nil
}

// Series implements the MAL primitive
//
//	command array.series(start, step, stop, N, M) :bat[:oid,:lng]
//
// from §3 of the paper: it generates the dimension-value BAT for one
// dimension of an array. Each value in [start:step:stop) is repeated N times
// consecutively (the repetition count of a single value within one group),
// and the whole group is repeated M times. For a row-major array with
// dimensions (d0, d1, ..., dk) of sizes (n0, n1, ..., nk), dimension i uses
// N = product of sizes of the dimensions declared after i, and M = product of
// the sizes declared before i — exactly the paper's Fig. 3 layout.
func Series(start, step, stop int64, n, m int) (*BAT, error) {
	cnt, err := SeriesLen(start, step, stop)
	if err != nil {
		return nil, err
	}
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("array.series: repetitions must be positive, got N=%d M=%d", n, m)
	}
	total := cnt * n * m
	vals := make([]int64, 0, total)
	for g := 0; g < m; g++ {
		v := start
		for i := 0; i < cnt; i++ {
			for r := 0; r < n; r++ {
				vals = append(vals, v)
			}
			v += step
		}
	}
	out := FromInts(vals)
	out.Sorted = m == 1 && step > 0
	out.Key = n == 1 && m == 1
	return out, nil
}

// fillerChunk is the bulk-fill granularity between cancellation polls,
// matching the i&0xfff cadence fillers used when they appended per element.
const fillerChunk = 1 << 12

// fillBulk writes x into every slot of dst in chunks, polling the job's
// cancellation flag between chunks.
func fillBulk[T any](dst []T, x T, job *par.Job) error {
	for lo := 0; lo < len(dst); lo += fillerChunk {
		if job.Canceled() {
			return par.ErrCanceled
		}
		hi := lo + fillerChunk
		if hi > len(dst) {
			hi = len(dst)
		}
		for i := lo; i < hi; i++ {
			dst[i] = x
		}
	}
	return nil
}

// Filler implements the MAL primitive
//
//	pattern array.filler(cnt, v) :bat[:oid,:any]
//
// from §3 of the paper: it materialises the cell values of a fresh array
// attribute as cnt copies of the default value v. A NULL v produces a column
// of holes.
//
// The constant payload is written with bulk slice fills rather than
// per-element appends; the resulting storage and property claims are
// identical to cnt Append calls on a fresh BAT. A filler aligned to a large
// intermediate (COUNT over a wide join) is a long serial fill, so it polls
// the query's job (nil: none) between chunks.
func Filler(job *par.Job, cnt int, v types.Value, kind types.Kind) (*BAT, error) {
	if cnt < 0 {
		return nil, fmt.Errorf("array.filler: negative count %d", cnt)
	}
	b := New(kind, cnt)
	if kind == types.KindVoid {
		return nil, fmt.Errorf("array.filler: unsupported kind %s", kind)
	}
	if v.IsNull() {
		// New's backing slices are zero-valued, so extending them to cnt
		// rows plus an all-ones NULL mask matches cnt AppendNull calls.
		switch kind {
		case types.KindInt, types.KindOID:
			b.ints = b.ints[:cnt]
		case types.KindFloat:
			b.floats = b.floats[:cnt]
		case types.KindBool:
			b.bools = b.bools[:cnt]
		case types.KindStr:
			b.strs = b.strs[:cnt]
		}
		b.count = cnt
		if cnt > 0 {
			b.Key = false
			b.nulls = NewBitmap(cnt)
			for i := range b.nulls.words {
				b.nulls.words[i] = ^uint64(0) // tail bits masked by readers
			}
		}
		return b, nil
	}
	cv, err := v.Cast(kind)
	if err != nil {
		return nil, fmt.Errorf("array.filler: %v", err)
	}
	switch kind {
	case types.KindInt, types.KindOID:
		x := cv.Int64()
		b.ints = b.ints[:cnt]
		if err := fillBulk(b.ints, x, job); err != nil {
			return nil, err
		}
		if cnt > 0 {
			b.minI, b.maxI, b.hasMM = x, x, true
		}
	case types.KindFloat:
		x := cv.Float64()
		b.floats = b.floats[:cnt]
		if err := fillBulk(b.floats, x, job); err != nil {
			return nil, err
		}
		if cnt > 0 {
			if math.IsNaN(x) {
				// NaN poisons bounds and order claims, as in noteAppendFloat.
				b.Sorted, b.SortedDesc, b.Key = false, false, false
			} else {
				b.minF, b.maxF, b.hasMM = x, x, true
			}
		}
	case types.KindBool:
		x := cv.BoolVal()
		b.bools = b.bools[:cnt]
		if err := fillBulk(b.bools, x, job); err != nil {
			return nil, err
		}
		if cnt > 0 {
			// Opaque kinds carry no incremental claims past the first row.
			b.Sorted, b.SortedDesc, b.Key = false, false, false
		}
	case types.KindStr:
		x := cv.StrVal()
		b.strs = b.strs[:cnt]
		if err := fillBulk(b.strs, x, job); err != nil {
			return nil, err
		}
		if cnt > 0 {
			b.Sorted, b.SortedDesc, b.Key = false, false, false
		}
	}
	b.count = cnt
	if b.hasMM && cnt > 1 {
		// A repeated value keeps both order claims but is never unique.
		b.Key = false
	}
	return b, nil
}
