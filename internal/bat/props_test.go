package bat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// Property soundness under mutation: whatever sequence of appends,
// overwrites, NULL flips and truncations a BAT sees, its claimed
// properties must stay *sound* — a set flag true of the data, bounds
// covering every non-NULL value. (Claims may be conservatively lost; they
// may never be wrong.) The oracle re-derives ground truth from scratch
// after every operation.

// checkSound compares the claims against ground truth recomputed row by
// row.
func checkSound(t *testing.T, step int, b *BAT) {
	t.Helper()
	var prev types.Value
	has := false
	asc, desc, unique := true, true, true
	seen := map[string]bool{}
	var mn, mx types.Value
	for i := 0; i < b.Len(); i++ {
		if b.IsNull(i) {
			unique = false // Key claims NULL-freedom
			continue
		}
		v := b.Get(i)
		if has {
			c := v.Compare(prev)
			if c < 0 {
				asc = false
			}
			if c > 0 {
				desc = false
			}
		}
		if seen[v.String()] {
			unique = false
		}
		seen[v.String()] = true
		if !has || v.Compare(mn) < 0 {
			mn = v
		}
		if !has || v.Compare(mx) > 0 {
			mx = v
		}
		prev, has = v, true
	}
	if b.Sorted && !asc {
		t.Fatalf("step %d: Sorted claimed on unsorted data", step)
	}
	if b.SortedDesc && !desc {
		t.Fatalf("step %d: SortedDesc claimed on non-descending data", step)
	}
	if b.Key && !unique {
		t.Fatalf("step %d: Key claimed on non-unique or NULL data", step)
	}
	if lo, hi, ok := b.MinMax(); ok && has {
		if mn.Compare(lo) < 0 || mx.Compare(hi) > 0 {
			t.Fatalf("step %d: bounds [%v,%v] do not cover data [%v,%v]", step, lo, hi, mn, mx)
		}
	}
	// A current cached zonemap must describe the data: slab bounds cover
	// every non-NULL row, NULL occupancy matches.
	zm := b.CachedZonemap()
	if zm == nil {
		return
	}
	for s := 0; s < zm.Slabs; s++ {
		lo, hi := zm.SlabRange(s)
		anyNull, anyVal := false, false
		for i := lo; i < hi; i++ {
			if b.IsNull(i) {
				anyNull = true
				continue
			}
			anyVal = true
			v := b.Ints()[i]
			if !zm.Mixed[s] && !zm.AllNull[s] && (v < zm.MinI[s] || v > zm.MaxI[s]) {
				t.Fatalf("step %d: slab %d value %d outside [%d,%d]", step, s, v, zm.MinI[s], zm.MaxI[s])
			}
		}
		if anyNull && !zm.HasNull[s] {
			t.Fatalf("step %d: slab %d has NULLs but zonemap claims none", step, s)
		}
		if anyVal && zm.AllNull[s] {
			t.Fatalf("step %d: slab %d has values but zonemap claims all-NULL", step, s)
		}
	}
}

func TestPropsSoundUnderRandomMutation(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New(types.KindInt, 0)
		// Seed with a sorted prefix so the order claims start out held.
		v := int64(0)
		for i := 0; i < 64; i++ {
			v += rng.Int63n(3)
			b.AppendInt(v)
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // append, often in order
				if rng.Intn(3) > 0 {
					v += rng.Int63n(3)
					b.AppendInt(v)
				} else {
					b.AppendInt(rng.Int63n(200) - 100)
				}
			case op < 5:
				b.AppendNull()
			case op < 7: // in-place overwrite
				if b.Len() > 0 {
					i := rng.Intn(b.Len())
					if err := b.Replace(i, types.Int(rng.Int63n(400)-200)); err != nil {
						t.Fatal(err)
					}
				}
			case op < 8: // NULL flip
				if b.Len() > 0 {
					b.SetNull(rng.Intn(b.Len()), rng.Intn(2) == 0)
				}
			case op < 9:
				if b.Len() > 4 {
					b.Truncate(b.Len() - rng.Intn(3))
				}
			default: // force a zonemap build so its invalidation is checked
				b.Zonemap()
			}
			checkSound(t, step, b)
		}
	}
}

// TestReplaceAtMatchesReplace: a bulk scatter leaves exactly the values,
// NULL mask and property claims that Replace row by row leaves —
// duplicates, skipped rows, NULL sources and NaN included.
func TestReplaceAtMatchesReplace(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kind := []types.Kind{types.KindInt, types.KindOID, types.KindFloat, types.KindBool, types.KindStr}[seed%5]
		val := func() types.Value {
			switch kind {
			case types.KindInt:
				return types.Int(rng.Int63n(100) - 50)
			case types.KindOID:
				return types.Oid(types.OID(rng.Int63n(100)))
			case types.KindFloat:
				if rng.Intn(30) == 0 {
					return types.Float(math.NaN())
				}
				return types.Float(float64(rng.Int63n(100)) / 4)
			case types.KindBool:
				return types.Bool(rng.Intn(2) == 0)
			}
			return types.Str(string(rune('a' + rng.Intn(26))))
		}
		n := 1 + rng.Intn(40)
		dst := New(kind, n)
		for i := 0; i < n; i++ {
			if rng.Intn(6) == 0 {
				dst.AppendNull()
			} else if err := dst.Append(val()); err != nil {
				t.Fatal(err)
			}
		}
		src := New(kind, 0)
		pos := make([]int, rng.Intn(30))
		for i := range pos {
			pos[i] = rng.Intn(n+2) - 2 // some skipped, many duplicates
			if rng.Intn(4) == 0 {
				src.AppendNull()
			} else if err := src.Append(val()); err != nil {
				t.Fatal(err)
			}
		}
		want, got := dst.Clone(), dst.Clone()
		for i, p := range pos {
			if p >= 0 {
				if err := want.Replace(p, src.Get(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := got.ReplaceAt(pos, src); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < n; i++ {
			g, w := got.Get(i), want.Get(i)
			if g.IsNull() != w.IsNull() || (!g.IsNull() && g.String() != w.String()) {
				t.Fatalf("seed %d: row %d is %v, Replace gives %v", seed, i, g, w)
			}
		}
		if got.Sorted != want.Sorted || got.SortedDesc != want.SortedDesc || got.Key != want.Key || got.hasMM != want.hasMM {
			t.Fatalf("seed %d: claims Sorted/SortedDesc/Key/bounds %v %v %v %v, Replace gives %v %v %v %v", seed,
				got.Sorted, got.SortedDesc, got.Key, got.hasMM, want.Sorted, want.SortedDesc, want.Key, want.hasMM)
		}
		if got.hasMM && (got.minI != want.minI || got.maxI != want.maxI || got.minF != want.minF || got.maxF != want.maxF) {
			t.Fatalf("seed %d: bounds differ from Replace's", seed)
		}
	}
}

// TestReplaceAtRefusesBeforeWriting: a position past the end or a source
// of another kind fails the scatter with the target untouched.
func TestReplaceAtRefusesBeforeWriting(t *testing.T) {
	b := FromInts([]int64{1, 2, 3})
	if err := b.ReplaceAt([]int{0, 3}, FromInts([]int64{9, 9})); err == nil {
		t.Fatal("position 3 of 3 rows accepted")
	}
	if err := b.ReplaceAt([]int{0}, FromStrings([]string{"x"})); err == nil {
		t.Fatal("string source accepted into an int column")
	}
	if got := []int64{b.Get(0).Int64(), b.Get(1).Int64(), b.Get(2).Int64()}; got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("refused scatter wrote: %v", got)
	}
}

// TestSetNullAtMatchesSetNull: a bulk hole punch leaves the values, NULL
// mask and property claims that SetNull row by row leaves, and an
// out-of-range position fails it with the column untouched.
func TestSetNullAtMatchesSetNull(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		base := FromInts(vals)
		base.Sorted, base.Key = true, true
		var pos []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				pos = append(pos, i)
			}
		}
		want, got := base.Clone(), base.Clone()
		for _, p := range pos {
			want.SetNull(p, true)
		}
		if err := got.SetNullAt(pos); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < n; i++ {
			if got.IsNull(i) != want.IsNull(i) || got.Get(i).String() != want.Get(i).String() {
				t.Fatalf("seed %d: row %d is %v, SetNull gives %v", seed, i, got.Get(i), want.Get(i))
			}
		}
		if got.Sorted != want.Sorted || got.SortedDesc != want.SortedDesc || got.Key != want.Key || got.hasMM != want.hasMM {
			t.Fatalf("seed %d: claims differ from SetNull's", seed)
		}
	}
	b := FromInts([]int64{1, 2, 3})
	if err := b.SetNullAt([]int{0, 3}); err == nil {
		t.Fatal("position 3 of 3 rows accepted")
	}
	if b.HasNulls() {
		t.Fatal("refused hole punch wrote a NULL")
	}
}

// TestPropsIncrementalAppend pins the append maintenance: an ordered load
// keeps its claims, one out-of-order value drops exactly the right ones.
func TestPropsIncrementalAppend(t *testing.T) {
	b := New(types.KindInt, 0)
	for _, v := range []int64{1, 3, 7, 7, 9} {
		b.AppendInt(v)
	}
	if !b.Sorted || b.SortedDesc {
		t.Fatalf("ascending load: Sorted=%v SortedDesc=%v", b.Sorted, b.SortedDesc)
	}
	if b.Key {
		t.Fatal("duplicate 7 must clear Key")
	}
	if lo, hi, ok := b.MinMaxInts(); !ok || lo != 1 || hi != 9 {
		t.Fatalf("bounds [%d,%d] ok=%v, want [1,9]", lo, hi, ok)
	}
	b.AppendInt(4)
	if b.Sorted {
		t.Fatal("out-of-order append must clear Sorted")
	}
	if lo, hi, ok := b.MinMaxInts(); !ok || lo != 1 || hi != 9 {
		t.Fatalf("bounds after unsorted append: [%d,%d] ok=%v", lo, hi, ok)
	}

	d := New(types.KindInt, 0)
	for _, v := range []int64{9, 5, 2} {
		d.AppendInt(v)
	}
	if !d.SortedDesc || d.Sorted {
		t.Fatalf("descending load: Sorted=%v SortedDesc=%v", d.Sorted, d.SortedDesc)
	}
	if !d.Key {
		t.Fatal("strictly descending load keeps Key")
	}

	s := New(types.KindStr, 0)
	if err := s.Append(types.Str("x")); err != nil {
		t.Fatal(err)
	}
	if s.Sorted || s.Key {
		t.Fatal("opaque appends must drop claims")
	}
}

// TestPropsFreezeWritable pins the copy-on-write contract: a frozen copy
// keeps sound claims while the writable original diverges, and Writable
// clones carry the claims into their own lifecycle.
func TestPropsFreezeWritable(t *testing.T) {
	b := New(types.KindInt, 0)
	for _, v := range []int64{1, 2, 3} {
		b.AppendInt(v)
	}
	b.Zonemap()
	f := b.Freeze()
	if f.CachedZonemap() != nil {
		t.Fatal("frozen copy must start with its own empty zonemap cache")
	}
	b.AppendInt(0) // breaks Sorted on the original only
	if !f.Sorted || f.Len() != 3 {
		t.Fatalf("frozen copy mutated: Sorted=%v len=%d", f.Sorted, f.Len())
	}
	if b.Sorted {
		t.Fatal("original kept Sorted after out-of-order append")
	}
	w := f.Writable()
	if w == f {
		t.Fatal("Writable on a shared BAT must clone")
	}
	if !w.Sorted {
		t.Fatal("clone dropped the Sorted claim")
	}
	if err := w.Replace(0, types.Int(99)); err != nil {
		t.Fatal(err)
	}
	if w.Sorted {
		t.Fatal("Replace must clear Sorted on the clone")
	}
	if !f.Sorted {
		t.Fatal("clone mutation leaked into the frozen copy")
	}
	if lo, hi, ok := w.MinMaxInts(); !ok || lo != 1 || hi != 99 {
		t.Fatalf("widened bounds [%d,%d] ok=%v, want [1,99]", lo, hi, ok)
	}
}

// TestZonemapStaleByCount pins the lazy rebuild: appends leave the cached
// zonemap stale and the next request rebuilds it for the new count.
func TestZonemapStaleByCount(t *testing.T) {
	b := New(types.KindInt, 0)
	for i := 0; i < 100; i++ {
		b.AppendInt(int64(i))
	}
	zm := b.Zonemap()
	if zm == nil || zm.Rows != 100 {
		t.Fatalf("zonemap rows %v", zm)
	}
	b.AppendInt(1000)
	if b.CachedZonemap() != nil {
		t.Fatal("stale zonemap served after append")
	}
	zm = b.Zonemap()
	if zm.Rows != 101 || zm.MaxI[0] != 1000 {
		t.Fatalf("rebuilt zonemap rows=%d max=%d", zm.Rows, zm.MaxI[0])
	}
}
