package gdk

import (
	"hash/maphash"
	"math"
	"math/bits"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// Row keys for the hash join, grouping and DISTINCT kernels.
//
// A kernel call resolves its key columns once to typed slices (one
// slab-layer charge per column, and a single decode for encoded columns),
// so the per-row loops — which run millions of times inside joins and
// grouping — hash and compare rows without boxing a value. A row hashes
// one 64-bit word per column (the integer itself, a float's bits with
// -0.0 read as 0.0, a string's maphash) through a multiplicative mix;
// tables index on the top bits of the result. Hashes live only inside
// one kernel call and are never persisted.

// hashMul is the multiplicative (Fibonacci) hashing constant: 2^64/phi.
const hashMul uint64 = 0x9E3779B97F4A7C15

// nullWord is the word a NULL key contributes to a row hash.
const nullWord uint64 = 0x6A09E667F3BCC909

var strSeed = maphash.MakeSeed()

// keyClass groups storage kinds that share one typed representation.
type keyClass uint8

const (
	keyOther keyClass = iota
	keyInt            // int, oid and void: int64 values
	keyFloat
	keyStr
	keyBool
)

// keyCol is one key column resolved to its typed slice.
type keyCol struct {
	class keyClass
	ints  []int64 // keyInt; nil for a void column, whose row i is base+i
	base  int64
	flts  []float64
	strs  []string
	bools []bool
	nulls *bat.BAT // the column itself when it holds a NULL, else nil
}

func newKeyCol(job *par.Job, c *bat.BAT) keyCol {
	k := keyCol{}
	if c.HasNulls() {
		k.nulls = c
	}
	switch c.Kind() {
	case types.KindInt, types.KindOID:
		k.class, k.ints = keyInt, c.DecodedInts(job)
	case types.KindVoid:
		k.class, k.base = keyInt, int64(c.Seqbase())
	case types.KindFloat:
		k.class, k.flts = keyFloat, c.DecodedFloats(job)
	case types.KindStr:
		k.class, k.strs = keyStr, c.DecodedStrs(job)
	case types.KindBool:
		k.class, k.bools = keyBool, c.DecodedBools(job)
	}
	return k
}

func (c *keyCol) isNull(i int) bool { return c.nulls != nil && c.nulls.IsNull(i) }

func (c *keyCol) int(i int) int64 {
	if c.ints != nil {
		return c.ints[i]
	}
	return c.base + int64(i)
}

// word is the hash input of row i.
func (c *keyCol) word(i int) uint64 {
	if c.isNull(i) {
		return nullWord
	}
	switch c.class {
	case keyInt:
		return uint64(c.int(i))
	case keyFloat:
		return math.Float64bits(c.flts[i] + 0) // -0.0 + 0 is +0.0
	case keyStr:
		return maphash.String(strSeed, c.strs[i])
	case keyBool:
		if c.bools[i] {
			return 1
		}
	}
	return 0
}

// eqAt compares non-NULL row i of c with non-NULL row j of o. Floats are
// equal when they compare equal, as in the comparison kernels: -0.0
// meets 0.0 and NaN meets nothing. Keys of different classes never
// meet: a join casts an int key that meets a float one (joinKeys).
func (c *keyCol) eqAt(i int, o *keyCol, j int) bool {
	if c.class != o.class {
		return false
	}
	switch c.class {
	case keyInt:
		return c.int(i) == o.int(j)
	case keyFloat:
		return c.flts[i] == o.flts[j]
	case keyStr:
		return c.strs[i] == o.strs[j]
	case keyBool:
		return c.bools[i] == o.bools[j]
	}
	return true
}

// rowKeys is a list of aligned key columns resolved for one kernel call.
// It is read-only after construction and safe to share across workers.
type rowKeys struct {
	cols  []keyCol
	nulls bool    // some column holds a NULL
	ints  []int64 // the values of a lone NULL-free int key: the fast path
}

func newRowKeys(job *par.Job, cols []*bat.BAT) *rowKeys {
	k := &rowKeys{cols: make([]keyCol, len(cols))}
	for c, b := range cols {
		k.cols[c] = newKeyCol(job, b)
		k.nulls = k.nulls || k.cols[c].nulls != nil
	}
	if len(cols) == 1 && !k.nulls {
		k.ints = k.cols[0].ints
	}
	return k
}

// hash hashes row i; equal rows (NULL equal to NULL) hash alike.
func (k *rowKeys) hash(i int) uint64 {
	if k.ints != nil {
		return uint64(k.ints[i]) * hashMul
	}
	var h uint64
	for c := range k.cols {
		h = (bits.RotateLeft64(h, 27) ^ k.cols[c].word(i)) * hashMul
	}
	return h
}

// hasNull reports whether row i holds a NULL key (such rows never join).
func (k *rowKeys) hasNull(i int) bool {
	if !k.nulls {
		return false
	}
	for c := range k.cols {
		if k.cols[c].isNull(i) {
			return true
		}
	}
	return false
}

// eq compares row i of k with row j of o (aligned key lists) with GROUP BY
// semantics: NULL equals NULL and differs from every value.
func (k *rowKeys) eq(i int, o *rowKeys, j int) bool {
	if k.ints != nil && o.ints != nil {
		return k.ints[i] == o.ints[j]
	}
	for c := range k.cols {
		a, b := &k.cols[c], &o.cols[c]
		an, bn := a.isNull(i), b.isNull(j)
		if an || bn {
			if an != bn {
				return false
			}
			continue
		}
		if !a.eqAt(i, b, j) {
			return false
		}
	}
	return true
}

// tableBits returns the log2 size of a power-of-two table with at least
// n slots (minimum 16).
func tableBits(n int) uint {
	b := uint(4)
	for 1<<b < n {
		b++
	}
	return b
}

// hashRows hashes rows [0,n) of k into hs (length n), splitting the work
// across the pool. A cancelled job stops it early; the caller checks the
// job.
func hashRows(job *par.Job, k *rowKeys, n int, hs []uint64) {
	par.Do(job, n, func(lo, hi int) {
		pollBlocks(job, lo, hi, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hs[i] = k.hash(i)
			}
		})
	})
}
