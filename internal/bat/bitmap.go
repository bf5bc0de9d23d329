package bat

import "math/bits"

// Bitmap is a growable bitset used for NULL masks and selection vectors.
// A nil Bitmap behaves as an all-zero bitmap of unbounded length, which lets
// fully non-NULL columns avoid any allocation.
type Bitmap struct {
	words []uint64
	n     int // logical length in bits
}

// NewBitmap returns a bitmap of n bits, all zero.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the logical length in bits.
func (b *Bitmap) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Get reports whether bit i is set. Out-of-range bits read as false.
func (b *Bitmap) Get(i int) bool {
	if b == nil || i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Word returns bits [64w, 64w+64) as one word, bit i of the bitmap at
// bit i%64. Bits at or beyond Len, and words past the end, read as zero.
func (b *Bitmap) Word(w int) uint64 {
	if b == nil || w < 0 || w >= len(b.words) {
		return 0
	}
	x := b.words[w]
	if rest := b.n - w<<6; rest < 64 {
		x &= 1<<rest - 1
	}
	return x
}

// Set sets bit i to v, growing the bitmap when i >= Len.
func (b *Bitmap) Set(i int, v bool) {
	if i < 0 {
		panic("bat: negative bitmap index")
	}
	if i >= b.n {
		b.grow(i + 1)
	}
	if v {
		b.words[i>>6] |= 1 << uint(i&63)
	} else {
		b.words[i>>6] &^= 1 << uint(i&63)
	}
}

// Append appends one bit.
func (b *Bitmap) Append(v bool) { b.Set(b.n, v) }

// grow extends the bitmap to n bits, reallocating only when the words
// outgrow their capacity (by half again, so appends amortise). Words
// reused from the spare capacity are zeroed: a shrinking Resize leaves
// its old bits there.
func (b *Bitmap) grow(n int) {
	need := (n + 63) / 64
	if need > cap(b.words) {
		words := make([]uint64, need, need+need/2)
		copy(words, b.words)
		b.words = words
	} else {
		old := len(b.words)
		b.words = b.words[:need]
		clear(b.words[min(old, need):])
	}
	b.n = n
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	if b == nil {
		return 0
	}
	c := 0
	for i, w := range b.words {
		if i == len(b.words)-1 {
			// Mask tail bits beyond the logical length.
			if rem := b.n & 63; rem != 0 {
				w &= (1 << uint(rem)) - 1
			}
		}
		c += popcount(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitmap) Any() bool {
	if b == nil {
		return false
	}
	for i, w := range b.words {
		if i == len(b.words)-1 {
			if rem := b.n & 63; rem != 0 {
				w &= (1 << uint(rem)) - 1
			}
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy. Cloning nil yields nil.
func (b *Bitmap) Clone() *Bitmap {
	if b == nil {
		return nil
	}
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{words: w, n: b.n}
}

// Slice returns a new bitmap holding bits [lo,hi).
func (b *Bitmap) Slice(lo, hi int) *Bitmap {
	if hi < lo {
		panic("bat: invalid bitmap slice")
	}
	out := NewBitmap(hi - lo)
	if b == nil {
		return out
	}
	for i := lo; i < hi; i++ {
		if b.Get(i) {
			out.Set(i-lo, true)
		}
	}
	return out
}

// Union returns a new n-bit bitmap holding the bitwise OR of a and b,
// word-at-a-time. Either input may be nil (all-zero) or shorter than n
// (zero-extended). It returns nil when both inputs are nil, preserving the
// "no NULLs" fast path.
func Union(n int, a, b *Bitmap) *Bitmap {
	if a == nil && b == nil {
		return nil
	}
	out := NewBitmap(n)
	if a != nil {
		copyWords(out.words, a.words, a.n)
	}
	if b != nil {
		orWords(out.words, b.words, b.n)
	}
	// Clear bits beyond n in case an input was longer than the result.
	if rem := n & 63; rem != 0 && len(out.words) > 0 {
		out.words[len(out.words)-1] &= (1 << uint(rem)) - 1
	}
	return out
}

// copyWords copies min(len(dst), words covering srcLen bits) words from src,
// masking the partial tail word of src so stale bits never transfer.
func copyWords(dst, src []uint64, srcLen int) {
	k := (srcLen + 63) / 64
	if k > len(dst) {
		k = len(dst)
	}
	copy(dst[:k], src[:k])
	maskTail(dst, srcLen, k)
}

func orWords(dst, src []uint64, srcLen int) {
	k := (srcLen + 63) / 64
	if k > len(dst) {
		k = len(dst)
	}
	for i := 0; i < k-1; i++ {
		dst[i] |= src[i]
	}
	if k > 0 {
		w := src[k-1]
		if rem := srcLen & 63; rem != 0 && k == (srcLen+63)/64 {
			w &= (1 << uint(rem)) - 1
		}
		dst[k-1] |= w
	}
}

func maskTail(dst []uint64, srcLen, k int) {
	if k == 0 || k != (srcLen+63)/64 {
		return
	}
	if rem := srcLen & 63; rem != 0 {
		dst[k-1] &= (1 << uint(rem)) - 1
	}
}

// Resize truncates or extends (with zero bits) the bitmap to n bits.
func (b *Bitmap) Resize(n int) {
	if n < 0 {
		panic("bat: negative bitmap size")
	}
	if n > b.n {
		b.grow(n)
		return
	}
	b.n = n
	b.words = b.words[:(n+63)/64]
	// Clear bits beyond the new length inside the last word so Count stays exact.
	if rem := n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

func popcount(w uint64) int { return bits.OnesCount64(w) }
