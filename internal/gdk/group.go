package gdk

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// GroupResult is the output of value-based grouping (MAL group.group):
// GIDs assigns every input row its group id (dense, first-occurrence order),
// Extents holds, per group, the position of the group's first row, and
// N is the number of groups.
type GroupResult struct {
	GIDs    *bat.BAT
	Extents *bat.BAT
	N       int
}

// Group performs value-based grouping over one or more aligned key columns.
// NULLs group together (SQL GROUP BY semantics).
//
// When cand is non-nil the key columns are base-aligned and only the
// candidate rows are grouped: GIDs is candidate-aligned (row i is the
// group of base row cand[i]) while Extents holds base positions, so key
// output columns project directly from base storage.
//
// Above the morsel threshold the input is partitioned into contiguous row
// ranges, each worker groups its partition locally, and the local tables
// are merged in partition order. Merging in order keeps group ids dense in
// global first-occurrence order, so the parallel result is bit-identical to
// the serial one.
func Group(job *par.Job, keys []*bat.BAT, cand *bat.BAT) (*GroupResult, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("gdk: group needs at least one key column")
	}
	if cand != nil {
		rk, err := restrictCols(job, keys, cand)
		if err != nil {
			return nil, err
		}
		res, err := Group(job, rk, nil)
		if err != nil {
			return nil, err
		}
		// Map extents (positions into candidate space) back to base rows;
		// composition through the ascending candidate list keeps them in
		// first-occurrence order.
		ext, err := Project(job, res.Extents, cand)
		if err != nil {
			return nil, err
		}
		ext.Key = true
		res.Extents = ext
		return res, nil
	}
	n := keys[0].Len()
	for _, k := range keys {
		if k.Len() != n {
			return nil, fmt.Errorf("gdk: group keys not aligned")
		}
	}
	// A sorted single key clusters every group into one contiguous run:
	// detect runs in a single pass instead of hashing. Equal values are
	// always adjacent in a sorted column, so run order equals
	// first-occurrence order and the group ids come out bit-identical to
	// the hash path's (and non-decreasing, which downstream aggregation
	// exploits).
	if len(keys) == 1 && !keys[0].HasNulls() &&
		(keys[0].Sorted || keys[0].SortedDesc) {
		if res, ok := groupSortedRuns(job, keys[0]); ok {
			return res, nil
		}
	}
	k := newRowKeys(job, keys)
	gids := make([]int64, n)
	plan := par.NewPlan(job, n)

	// Phase 1: group each partition locally. locals[c] holds absolute
	// first-row positions of the partition's groups in first-occurrence
	// order; gids temporarily holds partition-local ids.
	locals := make([]*groupTable, plan.Chunks())
	plan.Run(func(c, lo, hi int) {
		locals[c] = groupRange(job, k, lo, hi, gids)
	})
	if job.Canceled() {
		return nil, par.ErrCanceled
	}
	if !plan.Parallel() {
		return groupResult(gids, locals[0].extents), nil
	}

	// Phase 2: merge partitions in order. Each local group's representative
	// row is looked up in the global table; processing partitions in row
	// order makes global ids dense in first-occurrence order.
	global := newGroupTable(len(locals[0].extents))
	remaps := make([][]int64, plan.Chunks())
	for c, lt := range locals {
		remap := make([]int64, len(lt.extents))
		for g, first := range lt.extents {
			remap[g] = global.find(k, int(first), lt.hashes[g])
		}
		remaps[c] = remap
	}

	// Phase 3: rewrite partition-local ids to global ids, in parallel.
	plan.Run(func(c, lo, hi int) {
		remap := remaps[c]
		for i := lo; i < hi; i++ {
			gids[i] = remap[gids[i]]
		}
	})
	return groupResult(gids, global.extents), nil
}

func groupResult(gids, extents []int64) *GroupResult {
	g := bat.FromOIDs(gids)
	e := bat.FromOIDs(extents)
	e.Key = true
	return &GroupResult{GIDs: g, Extents: e, N: len(extents)}
}

// groupSortedRuns groups a sorted NULL-free key column by run detection:
// one pass, no hash table. ok is false for kinds that keep the hash path:
// bool (no typed comparison) and float, whose hash path keys on raw bits —
// it puts -0.0 and 0.0 in different buckets where a value-equality run
// would merge them, and bit-identity wins over the fast path.
func groupSortedRuns(job *par.Job, key *bat.BAT) (*GroupResult, bool) {
	n := key.Len()
	var same func(i int) bool // row i equals row i-1
	switch key.Kind() {
	case types.KindVoid:
		same = func(int) bool { return false }
	case types.KindInt, types.KindOID:
		vals := key.DecodedInts(job)
		same = func(i int) bool { return vals[i] == vals[i-1] }
	case types.KindStr:
		vals := key.DecodedStrs(job)
		same = func(i int) bool { return vals[i] == vals[i-1] }
	default:
		return nil, false
	}
	gids := make([]int64, n)
	extents := make([]int64, 0, 16)
	g := int64(-1)
	for i := 0; i < n; i++ {
		if i == 0 || !same(i) {
			g++
			extents = append(extents, int64(i))
		}
		gids[i] = g
	}
	res := groupResult(gids, extents)
	// Run-detected ids are non-decreasing by construction; claim it so
	// aggregation can take its run path.
	res.GIDs.Sorted = true
	res.Extents.Sorted = true
	return res, true
}

// groupTable assigns dense group ids in first-occurrence order by open
// addressing: slots hold group id + 1 (0 = empty) and are probed linearly
// from the top bits of the row hash. It starts small and doubles as groups
// arrive, so its size follows the group count, not the row count.
type groupTable struct {
	slots   []int32
	shift   uint     // 64 - log2(len(slots))
	hashes  []uint64 // per group: its row hash
	extents []int64  // per group: its first row
}

// newGroupTable sizes a table for about the given number of distinct rows
// (a hint; the table grows as needed).
func newGroupTable(hint int) *groupTable {
	b := tableBits(2 * min(hint, 1024))
	return &groupTable{slots: make([]int32, 1<<b), shift: 64 - b}
}

// find returns the group of row i (hash h), opening a new group when no
// earlier group's first row equals it.
func (t *groupTable) find(k *rowKeys, i int, h uint64) int64 {
	mask := len(t.slots) - 1
	s := int(h >> t.shift)
	for ; t.slots[s] != 0; s = (s + 1) & mask {
		g := t.slots[s] - 1
		if t.hashes[g] == h && k.eq(i, k, int(t.extents[g])) {
			return int64(g)
		}
	}
	return t.add(i, h, s)
}

// add opens a new group with first row i (hash h) in the empty slot s.
func (t *groupTable) add(i int, h uint64, s int) int64 {
	g := len(t.extents)
	t.extents = append(t.extents, int64(i))
	t.hashes = append(t.hashes, h)
	if 2*len(t.extents) > len(t.slots) {
		t.grow()
	} else {
		t.slots[s] = int32(g + 1)
	}
	return int64(g)
}

// findInts is find for rows [lo, hi) of a lone NULL-free int key, in one
// loop. Multiplying by the odd hashMul is a bijection on 64-bit words, so
// equal hashes mean equal keys: the loop compares the groups' hashes,
// which sit in a small dense array, and never reads their first rows back
// from the column.
func (t *groupTable) findInts(vals []int64, lo, hi int, gids []int64) {
	for i := lo; i < hi; i++ {
		h := uint64(vals[i]) * hashMul
		mask := len(t.slots) - 1
		for s := int(h >> t.shift); ; s = (s + 1) & mask {
			g := t.slots[s]
			if g == 0 {
				gids[i] = t.add(i, h, s)
				break
			}
			if t.hashes[g-1] == h {
				gids[i] = int64(g - 1)
				break
			}
		}
	}
}

// grow doubles the slot array and reinserts every group.
func (t *groupTable) grow() {
	t.shift--
	t.slots = make([]int32, 2*len(t.slots))
	mask := len(t.slots) - 1
	for g, h := range t.hashes {
		s := int(h >> t.shift)
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(g + 1)
	}
}

// groupRange groups rows [lo,hi) against a fresh local table, writing local
// group ids (dense from 0 in first-occurrence order) into gids[lo:hi]. The
// table's extents are the groups' absolute first-row positions. It polls
// job every 4096 rows and stops early once it is cancelled; the caller
// checks the job before using the table.
func groupRange(job *par.Job, k *rowKeys, lo, hi int, gids []int64) *groupTable {
	t := newGroupTable(hi - lo)
	pollBlocks(job, lo, hi, func(lo, hi int) {
		if k.ints != nil {
			t.findInts(k.ints, lo, hi, gids)
			return
		}
		for i := lo; i < hi; i++ {
			gids[i] = t.find(k, i, k.hash(i))
		}
	})
	return t
}
