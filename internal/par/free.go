package par

import "unsafe"

// Free is one MAL run's free list: the storage of intermediates that died
// earlier in the run, shelved by element size and length, from which the
// run's kernels take their output and scratch slices (Vec, ZeroVec)
// instead of allocating. The interpreter attaches it to the run's job
// (SetFree) and hands a dead variable's storage back with Put once no
// live variable shares it; a kernel hands back its own scratch with
// Recycle. Only what the list handed out comes back, so base columns and
// anything else allocated elsewhere are never reused. The zero value is
// an empty list.
//
// The list is not safe for concurrent use: kernels take and recycle
// slices on the calling goroutine, before their morsels start or after
// they end, never inside one.
type Free struct {
	// slices is every slice handed out in the run, in use or shelved. A
	// run hands out a few dozen, so the list scans instead of hashing,
	// and the first few live in buf.
	slices []handout
	buf    [6]handout
}

// handout is a slice the list handed out: its address, its length and
// element size (int64 and float64 slices share a shape), and whether it
// is back on the shelf.
type handout struct {
	p       unsafe.Pointer
	n       int
	size    uint32
	shelved bool
}

// SetFree attaches f to the job as its free list; nil detaches it. A job
// without one allocates every Vec.
func (j *Job) SetFree(f *Free) { j.free = f }

// freeList returns the job's free list (nil for a nil job).
func (j *Job) freeList() *Free {
	if j == nil {
		return nil
	}
	return j.free
}

// Vec returns an n-element slice for a kernel's output or scratch: from
// the job's free list when it is an int64, float64 or bool slice, freshly
// allocated otherwise. Its contents are unspecified, so the kernel writes
// every element; ZeroVec clears them.
func Vec[T any](j *Job, n int) []T {
	s, _ := vec[T](j, n)
	return s
}

// ZeroVec is Vec with every element zero.
func ZeroVec[T any](j *Job, n int) []T {
	s, zero := vec[T](j, n)
	if !zero {
		clear(s)
	}
	return s
}

// vec is Vec, also reporting whether the slice is known to be zero.
func vec[T any](j *Job, n int) ([]T, bool) {
	var z T
	switch any(z).(type) {
	case int64, float64, bool:
	default:
		return make([]T, n), true
	}
	size := uint32(unsafe.Sizeof(z))
	f := j.freeList()
	if f == nil || n == 0 {
		s := make([]T, n)
		if poisonRecycled && n > 0 {
			poison(unsafe.Pointer(unsafe.SliceData(s)), n, size)
			return s, false
		}
		return s, true
	}
	p, fresh := f.take(n, size)
	return unsafe.Slice((*T)(p), n), fresh && !poisonRecycled
}

// take hands out n elements of size bytes: a shelved slice of that shape,
// or a fresh zeroed allocation (fresh reports which).
func (f *Free) take(n int, size uint32) (p unsafe.Pointer, fresh bool) {
	for i := range f.slices {
		if h := &f.slices[i]; h.shelved && h.n == n && h.size == size {
			h.shelved = false
			poison(h.p, n, size)
			return h.p, false
		}
	}
	if size == 1 {
		p = unsafe.Pointer(unsafe.SliceData(make([]bool, n)))
	} else {
		p = unsafe.Pointer(unsafe.SliceData(make([]uint64, n)))
	}
	if f.slices == nil {
		f.slices = f.buf[:0]
	}
	f.slices = append(f.slices, handout{p: p, n: n, size: size})
	poison(p, n, size)
	return p, true
}

// inUse returns the handout at p that is not shelved, or nil.
func (f *Free) inUse(p unsafe.Pointer) *handout {
	for i := range f.slices {
		if h := &f.slices[i]; h.p == p && !h.shelved {
			return h
		}
	}
	return nil
}

// Extent returns the byte length of the slice the list handed out at p,
// and false when p starts none (or it is back on the shelf already).
func (f *Free) Extent(p unsafe.Pointer) (uintptr, bool) {
	if h := f.inUse(p); h != nil {
		return uintptr(h.n) * uintptr(h.size), true
	}
	return 0, false
}

// Put shelves the slice the list handed out at p, which nothing reachable
// reads any more; a p the list did not hand out is ignored.
func (f *Free) Put(p unsafe.Pointer) {
	if h := f.inUse(p); h != nil {
		h.shelved = true
		poison(p, h.n, h.size)
	}
}

// Recycle hands a kernel's dead scratch slice s back to the job's free
// list. The kernel guarantees nothing reads s afterwards.
func Recycle[T any](j *Job, s []T) {
	if f := j.freeList(); f != nil && len(s) > 0 {
		f.Put(unsafe.Pointer(unsafe.SliceData(s)))
	}
}

// poison overwrites the n elements of size bytes at p with values no
// kernel may rely on when the build has the malpoison tag: NaN-patterned
// words and true bools. Otherwise it does nothing.
func poison(p unsafe.Pointer, n int, size uint32) {
	if !poisonRecycled {
		return
	}
	if size == 1 {
		b := unsafe.Slice((*bool)(p), n)
		for i := range b {
			b[i] = true
		}
		return
	}
	w := unsafe.Slice((*uint64)(p), n)
	for i := range w {
		w[i] = 0x7ff8_dead_beef_0001
	}
}
