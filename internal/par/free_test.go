package par

import (
	"testing"
	"unsafe"
)

func addr[T any](s []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

// TestFreeListReuse: a slice handed back to the job's free list is handed
// out again for the next request of the same length and element size
// (int64 and float64 share a shelf), ZeroVec clears what it reuses, and
// the list takes back only what it handed out.
func TestFreeListReuse(t *testing.T) {
	var f Free
	job := NewJob(1, 0)
	job.SetFree(&f)
	a := Vec[int64](job, 100)
	for i := range a {
		a[i] = int64(i) + 1
	}
	if size, ok := f.Extent(addr(a)); !ok || size != 800 {
		t.Fatalf("Extent = %d, %v; want 800, true", size, ok)
	}
	Recycle(job, a)
	if _, ok := f.Extent(addr(a)); ok {
		t.Error("a recycled slice is still in use")
	}
	b := ZeroVec[float64](job, 100)
	if addr(b) != addr(a) {
		t.Error("a float64 slice of the same length did not reuse the int64 one")
	}
	for i, x := range b {
		if x != 0 {
			t.Fatalf("ZeroVec[%d] = %v", i, x)
		}
	}
	if c := Vec[int64](job, 100); addr(c) == addr(b) {
		t.Error("a slice in use was handed out twice")
	}
	if d := Vec[int64](job, 99); addr(d) == addr(a) {
		t.Error("a slice of another length was reused")
	}
	foreign := make([]int64, 100)
	f.Put(addr(foreign))
	if e := Vec[int64](job, 100); addr(e) == addr(foreign) {
		t.Error("the list handed out a slice it never owned")
	}
	bs := Vec[bool](job, 8)
	Recycle(job, bs)
	if bs2 := ZeroVec[bool](job, 8); addr(bs2) != addr(bs) || bs2[0] {
		t.Error("a bool slice was not reused, or not cleared")
	}

	job.SetFree(nil)
	x := Vec[int64](job, 4)
	Recycle(job, x)
	if y := Vec[int64](job, 4); addr(y) == addr(x) {
		t.Error("a job without a free list reused a slice")
	}
	if s := Vec[string](job, 3); len(s) != 3 || s[0] != "" {
		t.Error("Vec[string] is not a fresh zeroed slice")
	}
}
