package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

// forceParallel lowers the knobs so small inputs exercise the pool, and
// returns a restore function.
func forceParallel(t *testing.T, width int) func() {
	t.Helper()
	prevT := SetThreads(width)
	prevM := SetMorselThreshold(1)
	return func() {
		SetThreads(prevT)
		SetMorselThreshold(prevM)
	}
}

func TestDoCoversAllRows(t *testing.T) {
	defer forceParallel(t, 8)()
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 100000} {
		seen := make([]int32, n)
		Do(nil, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: row %d visited %d times", n, i, c)
			}
		}
	}
}

func TestSerialBelowThreshold(t *testing.T) {
	prevT := SetThreads(8)
	prevM := SetMorselThreshold(1 << 20)
	defer func() { SetThreads(prevT); SetMorselThreshold(prevM) }()
	calls := 0
	Do(nil, 1000, func(lo, hi int) { calls++ }) // no atomics: must be single-threaded
	if calls != 1 {
		t.Fatalf("expected one serial call, got %d", calls)
	}
}

func TestDoErrPropagatesFirstError(t *testing.T) {
	defer forceParallel(t, 4)()
	want := errors.New("boom")
	err := DoErr(nil, 50000, func(lo, hi int) error {
		if lo == 0 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
}

func TestRunPanicReplayedOnCaller(t *testing.T) {
	defer forceParallel(t, 4)()
	defer func() {
		if r := recover(); r != "kernel panic" {
			t.Fatalf("recovered %v, want kernel panic", r)
		}
	}()
	Do(nil, 50000, func(lo, hi int) {
		panic("kernel panic")
	})
}

func TestChunkBoundsAreAligned(t *testing.T) {
	defer forceParallel(t, 8)()
	p := NewPlan(nil, 1<<20)
	if !p.Parallel() {
		t.Fatal("expected a parallel plan")
	}
	if p.Size%64 != 0 {
		t.Fatalf("chunk size %d not 64-aligned", p.Size)
	}
	total := 0
	for c := 0; c < p.Chunks(); c++ {
		lo, hi := p.Bounds(c)
		if c > 0 && lo%64 != 0 {
			t.Fatalf("chunk %d starts at unaligned row %d", c, lo)
		}
		total += hi - lo
	}
	if total != p.N {
		t.Fatalf("chunks cover %d rows, want %d", total, p.N)
	}
}

func TestNestedDoDoesNotDeadlock(t *testing.T) {
	defer forceParallel(t, 4)()
	var count atomic.Int64
	Do(nil, 20000, func(lo, hi int) {
		Do(nil, 1000, func(l, h int) {
			count.Add(int64(h - l))
		})
	})
	// Each outer morsel runs a full inner Do over 1000 rows.
	p := NewPlan(nil, 20000)
	want := int64(p.Chunks()) * 1000
	if count.Load() != want {
		t.Fatalf("inner rows %d, want %d", count.Load(), want)
	}
}
