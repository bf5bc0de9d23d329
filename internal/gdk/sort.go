package gdk

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/bat"
	"repro/internal/par"
)

// SortSpec describes one ORDER BY key.
type SortSpec struct {
	Desc bool
}

// OrderIdx returns a stable order index (oid BAT) that sorts the aligned
// key columns according to specs. NULLs sort first on ascending keys and
// last on descending keys (MonetDB convention: NULL is the smallest
// value); NaN sorts after every number ascending and before them
// descending. -0.0 and 0.0 compare equal. Rows with equal keys keep their
// input order.
//
// A limit >= 0 asks for only the first limit entries of that order (ORDER
// BY ... LIMIT): a bounded heap keeps the best limit rows under the same
// total order — keys, then position — so the result is exactly the
// full order's prefix.
//
// The sort polls job every 4096 rows while it collects them and while a
// radix pass moves them, and every 2^16 comparisons of a comparison sort,
// which a cancelled job unwinds with a par.ErrCanceled panic recovered
// here.
func OrderIdx(job *par.Job, keys []*bat.BAT, specs []SortSpec, limit int) (idx *bat.BAT, err error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("gdk: sort needs at least one key")
	}
	if len(specs) != len(keys) {
		return nil, fmt.Errorf("gdk: sort specs not aligned with keys")
	}
	n := keys[0].Len()
	for _, k := range keys {
		if k.Len() != n {
			return nil, fmt.Errorf("gdk: sort keys not aligned")
		}
	}
	if limit < 0 || limit > n {
		limit = n
	}
	sks := make([]sortKey, len(keys))
	for i, k := range keys {
		sks[i] = sortKey{col: newKeyCol(job, k), desc: specs[i].Desc}
	}
	if len(sks) == 1 && sks[0].col.class != keyStr {
		order := sks[0].order(job, n, limit)
		if job.Canceled() {
			return nil, par.ErrCanceled
		}
		return bat.FromOIDs(order), nil
	}
	defer func() {
		if r := recover(); r != nil {
			if r != par.ErrCanceled {
				panic(r)
			}
			idx, err = nil, par.ErrCanceled
		}
	}()
	calls := 0
	top := topK[int64]{k: limit, h: make([]int64, 0, limit), cmp: func(a, b int64) int {
		if calls++; calls&0xffff == 0 && job.Canceled() {
			panic(par.ErrCanceled)
		}
		for k := range sks {
			if c := sks[k].cmp(int(a), int(b)); c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	}}
	for i := 0; i < n; i++ {
		if i&0xfff == 0 && job.Canceled() {
			return nil, par.ErrCanceled
		}
		top.offer(int64(i))
	}
	return bat.FromOIDs(top.sorted()), nil
}

// topK keeps the k smallest items offered under cmp, a total order. The
// first k items are kept as they come; from the next one on they form a
// max-heap, and each later item either loses to its root or replaces it.
// With k equal to the number of items offered it is a plain sort.
type topK[T any] struct {
	k      int
	cmp    func(a, b T) int
	h      []T
	heaped bool
}

func (t *topK[T]) offer(x T) {
	if len(t.h) < t.k {
		t.h = append(t.h, x)
		return
	}
	if t.k == 0 {
		return
	}
	if !t.heaped {
		for p := t.k/2 - 1; p >= 0; p-- {
			t.down(p)
		}
		t.heaped = true
	}
	if t.cmp(x, t.h[0]) < 0 {
		t.h[0] = x
		t.down(0)
	}
}

// down restores the max-heap below position p.
func (t *topK[T]) down(p int) {
	h := t.h
	for {
		c := 2*p + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && t.cmp(h[c+1], h[c]) > 0 {
			c++
		}
		if t.cmp(h[p], h[c]) >= 0 {
			return
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
}

// sorted returns the kept items in order.
func (t *topK[T]) sorted() []T {
	slices.SortFunc(t.h, t.cmp)
	return t.h
}

// sortKey is one ORDER BY column resolved to its typed slice, with one
// comparator per kind: strings compare directly, fixed-width kinds (int,
// oid, void, float, bool) through an order-preserving word.
type sortKey struct {
	col  keyCol
	desc bool
}

// word maps non-NULL row i to a word whose unsigned order is the key's
// order, complemented for a descending key.
func (k *sortKey) word(i int) uint64 {
	var w uint64
	switch k.col.class {
	case keyInt:
		w = uint64(k.col.int(i)) ^ 1<<63
	case keyFloat:
		w = floatWord(k.col.flts[i])
	case keyBool:
		if k.col.bools[i] {
			w = 1
		}
	}
	if k.desc {
		w = ^w
	}
	return w
}

// floatWord maps a float to a word whose unsigned order is the numeric
// order, with -0.0 equal to 0.0 and every NaN above +Inf.
func floatWord(f float64) uint64 {
	if f != f {
		return math.MaxUint64
	}
	b := math.Float64bits(f + 0) // -0.0 + 0 is +0.0
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// cmp orders rows a and b on this key alone.
func (k *sortKey) cmp(a, b int) int {
	if k.col.nulls != nil {
		an, bn := k.col.isNull(a), k.col.isNull(b)
		if an || bn {
			if an == bn {
				return 0
			}
			c := 1
			if an {
				c = -1
			}
			if k.desc {
				c = -c
			}
			return c
		}
	}
	if k.col.class == keyStr {
		c := strings.Compare(k.col.strs[a], k.col.strs[b])
		if k.desc {
			c = -c
		}
		return c
	}
	return cmp.Compare(k.word(a), k.word(b))
}

// order returns the first limit rows of the order of n rows of one
// fixed-width key. NULL rows, in position order, go first (ascending) or
// last (descending); the other rows are (word, position) pairs. A full
// order puts the pairs in order with a stable LSD radix sort, so equal
// words keep ascending positions without a comparison (over 2^19 floats
// it takes under half the time of slices.SortFunc on the same pairs); a
// shorter limit keeps the best pairs in a bounded heap. A cancelled job
// cuts the order short; the caller checks it before using the result.
func (k *sortKey) order(job *par.Job, n, limit int) []int64 {
	var nulls []int64
	top := topK[wordPos]{k: limit, h: make([]wordPos, 0, limit), cmp: func(a, b wordPos) int {
		if c := cmp.Compare(a.w, b.w); c != 0 {
			return c
		}
		return cmp.Compare(a.p, b.p)
	}}
	for i := 0; i < n; i++ {
		if i&0xfff == 0 && job.Canceled() {
			return nil
		}
		if k.col.isNull(i) {
			if len(nulls) < limit {
				nulls = append(nulls, int64(i))
			}
			continue
		}
		w := k.word(i)
		if top.heaped && w >= top.h[0].w {
			continue // loses to the root: a later row loses ties too
		}
		top.offer(wordPos{w, int64(i)})
	}
	pairs := top.h
	if limit == n {
		if !radixSort(job, pairs) {
			return nil
		}
	} else {
		pairs = top.sorted()
	}
	idx := make([]int64, 0, len(nulls)+len(pairs))
	if !k.desc {
		idx = append(idx, nulls...)
	}
	for _, p := range pairs {
		idx = append(idx, p.p)
	}
	if k.desc {
		idx = append(idx, nulls...)
	}
	return idx[:limit]
}

// wordPos is one row of a fixed-width sort key: its order word and its
// position.
type wordPos struct {
	w uint64
	p int64
}

// radixSort sorts pairs by word, stably, one byte per pass from the least
// significant; a byte every word shares costs no pass. It polls job every
// 4096 pairs of every pass and reports false, leaving pairs unsorted, once
// the job is cancelled.
func radixSort(job *par.Job, pairs []wordPos) bool {
	var counts [8][256]int
	if !pollBlocks(job, 0, len(pairs), func(lo, hi int) {
		for _, p := range pairs[lo:hi] {
			for d := range counts {
				counts[d][byte(p.w>>(8*d))]++
			}
		}
	}) {
		return false
	}
	src, dst := pairs, make([]wordPos, len(pairs))
	for d := range counts {
		c := &counts[d]
		if len(src) == 0 || c[byte(src[0].w>>(8*d))] == len(src) {
			continue
		}
		pos := 0
		for b := range c {
			c[b], pos = pos, pos+c[b]
		}
		if !pollBlocks(job, 0, len(src), func(lo, hi int) {
			for _, p := range src[lo:hi] {
				b := byte(p.w >> (8 * d))
				dst[c[b]] = p
				c[b]++
			}
		}) {
			return false
		}
		src, dst = dst, src
	}
	copy(pairs, src)
	return true
}
