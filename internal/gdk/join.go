package gdk

import (
	"fmt"
	"slices"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// HashJoin computes the inner equi-join of two aligned column groups on the
// given key columns. It returns two position lists (left and right), one
// entry per matching pair, ordered by left position. NULL keys never match.
//
// When lcand/rcand are non-nil the key columns are base-aligned and only
// the candidate rows on that side participate: the build side inserts only
// candidate rows, the probe side probes only candidate rows, and the
// returned position lists hold base positions, so downstream projections
// fetch from base storage directly.
//
// Both phases run on the shared worker pool above the morsel threshold: the
// build side hashes its rows in parallel before the (serial) table insert,
// and the probe side scans morsels concurrently, concatenating per-chunk
// match lists in chunk order so the output stays sorted by probe position.
func HashJoin(job *par.Job, lkeys, rkeys []*bat.BAT, lcand, rcand *bat.BAT) (lIdx, rIdx *bat.BAT, err error) {
	if lkeys, rkeys, err = joinKeys(job, lkeys, rkeys, lcand, rcand); err != nil {
		return nil, nil, err
	}
	lIdx, rIdx, err = hashJoinDense(job, lkeys, rkeys)
	if err != nil {
		return nil, nil, err
	}
	if lIdx, err = mapCand(job, lIdx, lcand); err != nil {
		return nil, nil, err
	}
	if rIdx, err = mapCand(job, rIdx, rcand); err != nil {
		return nil, nil, err
	}
	return lIdx, rIdx, nil
}

// joinKeys restricts each side's key columns to its candidates and casts
// an integer key that meets a float key to float, so the pair hashes and
// compares as SQL's `=` does: in the common kind.
func joinKeys(job *par.Job, lkeys, rkeys []*bat.BAT, lcand, rcand *bat.BAT) ([]*bat.BAT, []*bat.BAT, error) {
	if len(lkeys) == 0 || len(lkeys) != len(rkeys) {
		return nil, nil, fmt.Errorf("gdk: join needs matching key column lists")
	}
	lkeys, err := restrictCols(job, lkeys, lcand)
	if err != nil {
		return nil, nil, err
	}
	if rkeys, err = restrictCols(job, rkeys, rcand); err != nil {
		return nil, nil, err
	}
	lkeys, rkeys = slices.Clone(lkeys), slices.Clone(rkeys)
	for k := range lkeys {
		ck, err := types.CommonKind(lkeys[k].ValueKind(), rkeys[k].ValueKind())
		if err != nil {
			return nil, nil, fmt.Errorf("gdk: join key %d: %v", k, err)
		}
		if ck != types.KindFloat {
			continue
		}
		for _, side := range [][]*bat.BAT{lkeys, rkeys} {
			if side[k].ValueKind() != types.KindFloat {
				if side[k], err = CastBAT(job, B(side[k]), types.KindFloat, nil); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return lkeys, rkeys, nil
}

func hashJoinDense(job *par.Job, lkeys, rkeys []*bat.BAT) (lIdx, rIdx *bat.BAT, err error) {
	// Both sides sorted on a single key: the merge join touches each side
	// once, builds no table, and produces the same (left, right)-ordered
	// pairs the hash paths do.
	if len(lkeys) == 1 && mergeJoinEligible(lkeys[0], rkeys[0]) {
		return MergeJoin(job, lkeys[0], rkeys[0])
	}
	nl, nr := lkeys[0].Len(), rkeys[0].Len()
	// Build on the smaller side.
	if nr <= nl {
		return probeJoin(job, lkeys, rkeys, false)
	}
	r, l, err := probeJoin(job, rkeys, lkeys, false)
	if err != nil {
		return nil, nil, err
	}
	// Re-sort pairs by left position for deterministic output.
	return sortPairsByLeft(job, l, r, nl)
}

// mergeJoinEligible reports whether the single-key merge join applies:
// both columns sorted ascending, NULL-free, and of the same storage family
// (the hash paths compare raw representations, so cross-family keys must
// keep taking them).
func mergeJoinEligible(l, r *bat.BAT) bool {
	if !l.Sorted || !r.Sorted || l.HasNulls() || r.HasNulls() {
		return false
	}
	lf, rf := keyFamily(l.Kind()), keyFamily(r.Kind())
	return lf != 0 && lf == rf
}

// keyFamily buckets storage kinds that compare identically for join
// purposes (0 = unsupported). Floats stay on the hash paths: the hash
// join keys on raw bits, under which -0.0 and 0.0 differ, while a sorted
// merge would have to unify them — the two paths would disagree.
func keyFamily(k types.Kind) int {
	switch k {
	case types.KindVoid, types.KindInt, types.KindOID:
		return 1
	case types.KindStr:
		return 3
	}
	return 0
}

// MergeJoin computes the inner equi-join of two sorted, NULL-free key
// columns in one linear pass: equal-value runs on both sides pair up as a
// small cross product. The output is ordered by (left, right) position —
// bit-identical to the hash paths' output — so callers may substitute it
// freely. Callers must check mergeJoinEligible-style preconditions; the
// kernel validates them again and errors otherwise.
func MergeJoin(job *par.Job, l, r *bat.BAT) (lIdx, rIdx *bat.BAT, err error) {
	if !mergeJoinEligible(l, r) {
		return nil, nil, fmt.Errorf("gdk: merge join needs sorted NULL-free keys of one family, got %s/%s", l, r)
	}
	var lout, rout []int64
	if keyFamily(l.Kind()) == 1 {
		lout, rout = mergeRuns(job, l.Len(), r.Len(), intAt(job, l), intAt(job, r))
	} else {
		lv, rv := l.DecodedStrs(job), r.DecodedStrs(job)
		lout, rout = mergeRuns(job, l.Len(), r.Len(),
			func(i int) string { return lv[i] }, func(i int) string { return rv[i] })
	}
	if job.Canceled() {
		return nil, nil, par.ErrCanceled
	}
	lb, rb := bat.FromOIDs(lout), bat.FromOIDs(rout)
	lb.Sorted = true
	return lb, rb, nil
}

// mergeRuns is the sorted-merge core: advance past unequal values, expand
// equal runs pairwise. It is a single linear pass outside the morsel
// machinery, so it polls the query's job itself and bails with a
// truncated (discarded by the caller) result.
func mergeRuns[T int64 | string](job *par.Job, nl, nr int, lat, rat func(int) T) (lout, rout []int64) {
	tick := 0
	i, j := 0, 0
	for i < nl && j < nr {
		if tick++; tick&0xfff == 0 && job.Canceled() {
			break
		}
		lv, rv := lat(i), rat(j)
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			i2 := i + 1
			for i2 < nl && lat(i2) == lv {
				i2++
			}
			j2 := j + 1
			for j2 < nr && rat(j2) == rv {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					lout = append(lout, int64(a))
					rout = append(rout, int64(b))
				}
			}
			i, j = i2, j2
		}
	}
	if lout == nil {
		lout, rout = []int64{}, []int64{}
	}
	return lout, rout
}

// hashTable is a chained-bucket table over flat arrays: buckets[h>>shift]
// holds the 1-based row index of its chain head, next[i] the 1-based
// index of the row after i in the same bucket, and 0 means "end". The
// zero value of both arrays is already a valid empty table, so the only
// allocations are demand-zero flat slices — unlike a row-count-sized Go
// map, whose eager bucket array is an uncancellable multi-hundred-MB
// stall at 10M rows. Chains keep ascending row order, so probing yields
// pairs in ascending build position.
type hashTable struct {
	keys    *rowKeys
	shift   uint
	buckets []int32
	next    []int32
	hs      []uint64 // per-row hash: cheap chain filter before eq; nil for int keys
}

// Small single-int-key builds get sparseBuckets buckets per row, up to
// sparseMaxBuckets in all, so most probes of a non-matching key find an
// empty bucket instead of walking a chain; larger builds keep one bucket
// per row. The bucket array stays within a few hundred KB (cache-resident
// under a probe of millions of rows) and large builds never reach the cap.
const (
	sparseBuckets    = 32
	sparseMaxBuckets = 1 << 16
)

// buildHashTable chains the NULL-free rows of keys into the bucket table.
// With ints set (both sides are a lone NULL-free int key), each row
// hashes inline as it is inserted and probeInts reads the table;
// otherwise the rows are hashed (in parallel) into hs first. The
// insertion loop is the join's long serial segment, so it polls the
// query's job every 4096 rows and bails with a partial table — callers
// must check the job before using the result. The job is also checked
// between the table's large allocations: an allocation cannot be
// interrupted, and while the garbage collector is marking a large one can
// take tens of milliseconds.
func buildHashTable(job *par.Job, keys *rowKeys, n int, ints bool) *hashTable {
	t := &hashTable{keys: keys}
	b := tableBits(n)
	if ints && n*sparseBuckets <= sparseMaxBuckets {
		b = tableBits(n * sparseBuckets)
	}
	if !ints {
		t.hs = make([]uint64, n)
		if hashRows(job, keys, n, t.hs); job.Canceled() {
			return t
		}
	}
	if t.shift, t.buckets = 64-b, make([]int32, 1<<b); job.Canceled() {
		return t
	}
	t.next = make([]int32, n)
	// Insert in descending row order: each prepend leaves the chain
	// reading ascending, matching the probe-output order contract.
	for i := n - 1; i >= 0; i-- {
		if i&0xfff == 0 && job.Canceled() {
			break
		}
		var h uint64
		switch {
		case ints:
			h = uint64(keys.ints[i]) * hashMul
		case keys.hasNull(i):
			continue
		default:
			h = t.hs[i]
		}
		b := h >> t.shift
		t.next[i] = t.buckets[b]
		t.buckets[b] = int32(i) + 1
	}
	return t
}

// probe appends to out every build row equal to row i of the probe keys
// k, in ascending build position. NULL-keyed probe rows match nothing.
func (t *hashTable) probe(k *rowKeys, i int, out []int64) []int64 {
	if k.hasNull(i) {
		return out
	}
	h := k.hash(i)
	for j := t.buckets[h>>t.shift]; j != 0; j = t.next[j-1] {
		ri := int(j - 1)
		if t.hs[ri] == h && k.eq(i, t.keys, ri) {
			out = append(out, int64(ri))
		}
	}
	return out
}

// probeInts is the inner-join probe of rows [lo, hi) of a lone NULL-free
// int key against a table built on one: one loop, comparing the keys
// themselves. It appends the (left, right) pairs to lout and rout.
func (t *hashTable) probeInts(keys []int64, lo, hi int, lout, rout []int64) ([]int64, []int64) {
	build, buckets, next, shift := t.keys.ints, t.buckets, t.next, t.shift
	for i := lo; i < hi; i++ {
		v := keys[i]
		for j := buckets[uint64(v)*hashMul>>shift]; j != 0; j = next[j-1] {
			if build[j-1] == v {
				lout, rout = append(lout, int64(i)), append(rout, int64(j-1))
			}
		}
	}
	return lout, rout
}

// joinSegPairs is the size at which the probe, checking every 256 rows,
// starts a new output buffer, so growing one copies about this many pairs
// at most (the copy is uncancellable); concatInt64 joins the segments
// once, morsel by morsel.
const joinSegPairs = 1 << 16

// probeJoin builds a hash table on rkeys and probes it with every row of
// lkeys. The (left, right) position pairs come out ordered by left, then
// right position. With outer set, a left row without a match pairs once
// with a NULL right position. The probe is morsel-parallel and polls the
// job every 256 rows; the build polls it every 4096.
func probeJoin(job *par.Job, lkeys, rkeys []*bat.BAT, outer bool) (*bat.BAT, *bat.BAT, error) {
	// An inner join on a lone NULL-free int key on both sides takes the
	// typed probe.
	k, rk := newRowKeys(job, lkeys), newRowKeys(job, rkeys)
	ints := !outer && k.ints != nil && rk.ints != nil
	table := buildHashTable(job, rk, rkeys[0].Len(), ints)
	if job.Canceled() {
		return nil, nil, par.ErrCanceled
	}

	// Probe phase: the table is read-only from here on, so morsels probe
	// concurrently, each into its own list of output segments.
	plan := par.NewPlan(job, lkeys[0].Len())
	lsegs := make([][][]int64, plan.Chunks())
	rsegs := make([][][]int64, plan.Chunks())
	plan.Run(func(c, lo, hi int) {
		var lout, rout []int64
		// A probe row can match many build rows, so the job is polled
		// every 256 rows, between runs of the row loop.
		for b := lo; b < hi; b += 256 {
			if job.Canceled() {
				break
			}
			if len(rout) >= joinSegPairs {
				lsegs[c], rsegs[c] = append(lsegs[c], lout), append(rsegs[c], rout)
				lout, rout = nil, nil
			}
			if ints {
				lout, rout = table.probeInts(k.ints, b, min(b+256, hi), lout, rout)
				continue
			}
			for i := b; i < min(b+256, hi); i++ {
				from := len(rout)
				rout = table.probe(k, i, rout)
				if outer && len(rout) == from {
					rout = append(rout, -1) // no match: a NULL right position
				}
				for range rout[from:] {
					lout = append(lout, int64(i))
				}
			}
		}
		lsegs[c], rsegs[c] = append(lsegs[c], lout), append(rsegs[c], rout)
	})
	// A cancelled probe leaves partial buffers; skip materialising them
	// (concat + copy of a possibly huge pair list) and bail now.
	if job.Canceled() {
		return nil, nil, par.ErrCanceled
	}
	lvals := concatInt64(job, slices.Concat(lsegs...))
	rvals := concatInt64(job, slices.Concat(rsegs...))
	if job.Canceled() {
		return nil, nil, par.ErrCanceled
	}
	var mask *bat.Bitmap
	if outer {
		for p, r := range rvals {
			if r < 0 {
				if mask == nil {
					mask = bat.NewBitmap(len(rvals))
				}
				mask.Set(p, true)
				rvals[p] = 0
			}
		}
	}
	lb, rb := bat.FromOIDs(lvals), bat.FromOIDs(rvals)
	lb.Sorted = true
	rb.SetNullMask(mask)
	return lb, rb, nil
}

// concatInt64 joins per-chunk buffers in chunk order; a single chunk is
// returned as-is without copying. The copy runs by morsels of the output,
// so a large join's pair list copies on the pool and a cancelled job
// stops it within a morsel (or skips the allocation), leaving a partial
// result — callers must check the job before using it.
func concatInt64(job *par.Job, parts [][]int64) []int64 {
	if len(parts) == 1 {
		if parts[0] == nil {
			return []int64{}
		}
		return parts[0]
	}
	if job.Canceled() {
		return []int64{}
	}
	ends := make([]int, len(parts)) // ends[c]: output row after part c
	total := 0
	for c, p := range parts {
		total += len(p)
		ends[c] = total
	}
	out := make([]int64, total)
	par.Do(job, total, func(lo, hi int) {
		for c, _ := slices.BinarySearch(ends, lo+1); lo < hi; c++ {
			lo += copy(out[lo:hi], parts[c][lo-(ends[c]-len(parts[c])):])
		}
	})
	return out
}

// sortPairsByLeft reorders join pairs that arrive ordered by right
// position into (left, right) order, where every left position is below
// nl: a stable counting sort on the left position, O(pairs + nl).
func sortPairsByLeft(job *par.Job, l, r *bat.BAT, nl int) (*bat.BAT, *bat.BAT, error) {
	if job.Canceled() {
		return nil, nil, par.ErrCanceled
	}
	ls, rs := l.DecodedInts(job), r.DecodedInts(job)
	start := make([]int64, nl+1)
	for _, v := range ls {
		start[v+1]++
	}
	for i := 1; i <= nl; i++ {
		start[i] += start[i-1]
	}
	lo := make([]int64, len(ls))
	ro := make([]int64, len(ls))
	for p, v := range ls {
		q := start[v]
		start[v]++
		lo[q], ro[q] = v, rs[p]
	}
	lb, rb := bat.FromOIDs(lo), bat.FromOIDs(ro)
	lb.Sorted = true
	return lb, rb, nil
}

// LeftJoin computes the left outer equi-join: every left row appears at
// least once; unmatched rows pair with a NULL right position. Candidate
// lists restrict each side like HashJoin's; the probe phase is
// morsel-parallel like HashJoin's.
func LeftJoin(job *par.Job, lkeys, rkeys []*bat.BAT, lcand, rcand *bat.BAT) (lIdx, rIdx *bat.BAT, err error) {
	if lkeys, rkeys, err = joinKeys(job, lkeys, rkeys, lcand, rcand); err != nil {
		return nil, nil, err
	}
	lIdx, rIdx, err = probeJoin(job, lkeys, rkeys, true)
	if err != nil {
		return nil, nil, err
	}
	// NULL right positions (unmatched left rows) survive the composition:
	// Project keeps NULL index entries NULL.
	if lIdx, err = mapCand(job, lIdx, lcand); err != nil {
		return nil, nil, err
	}
	if rIdx, err = mapCand(job, rIdx, rcand); err != nil {
		return nil, nil, err
	}
	return lIdx, rIdx, nil
}

// Cross computes the cross product position lists of two inputs of nl and
// nr rows. It refuses products beyond a sanity limit to protect the caller
// from runaway plans.
func Cross(job *par.Job, nl, nr int) (lIdx, rIdx *bat.BAT, err error) {
	const limit = 1 << 28
	if int64(nl)*int64(nr) > limit {
		return nil, nil, fmt.Errorf("gdk: cross product of %d x %d rows exceeds limit", nl, nr)
	}
	n := nl * nr
	lo := make([]int64, n)
	ro := make([]int64, n)
	par.Do(job, n, func(from, to int) {
		for p := from; p < to; p++ {
			lo[p] = int64(p / nr)
			ro[p] = int64(p % nr)
		}
	})
	lb, rb := bat.FromOIDs(lo), bat.FromOIDs(ro)
	lb.Sorted = true
	return lb, rb, nil
}
