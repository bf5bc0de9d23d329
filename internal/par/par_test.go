package par

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// forceParallel returns a job of the given width whose cutoff is so low
// that small inputs exercise the pool.
func forceParallel(width int) *Job { return NewJob(width, 1) }

func TestDoCoversAllRows(t *testing.T) {
	job := forceParallel(8)
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 100000} {
		seen := make([]int32, n)
		Do(job, n, func(lo, hi int) {
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
	calls := 0
	Do(NewJob(8, 1<<20), 1000, func(lo, hi int) { calls++ }) // no atomics: must be single-threaded
	if calls != 1 {
		t.Fatalf("expected one serial call, got %d", calls)
	}
}

func TestDoErrPropagatesFirstError(t *testing.T) {
	want := errors.New("boom")
	err := DoErr(forceParallel(4), 50000, func(lo, hi int) error {
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
	defer func() {
		if r := recover(); r != "kernel panic" {
			t.Fatalf("recovered %v, want kernel panic", r)
		}
	}()
	Do(forceParallel(4), 50000, func(lo, hi int) {
		panic("kernel panic")
	})
}

func TestChunkBoundsAreAligned(t *testing.T) {
	p := NewPlan(forceParallel(8), 1<<20)
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
	job := forceParallel(4)
	var count atomic.Int64
	Do(job, 20000, func(lo, hi int) {
		Do(job, 1000, func(l, h int) {
			count.Add(int64(h - l))
		})
	})
	// Each outer morsel runs a full inner Do over 1000 rows.
	p := NewPlan(job, 20000)
	want := int64(p.Chunks()) * 1000
	if count.Load() != want {
		t.Fatalf("inner rows %d, want %d", count.Load(), want)
	}
}

// TestConcurrentJobsKeepTheirWidths: two queries of widths 1 and 8 plan
// side by side, each at its own width, however their calls interleave.
func TestConcurrentJobsKeepTheirWidths(t *testing.T) {
	const n = 1 << 18
	narrow, wide := NewJob(1, 64), NewJob(8, 64)
	wantNarrow, wantWide := 1, NewPlan(wide, n).Chunks()
	if wantWide <= 1 {
		t.Fatalf("a width-8 plan over %d rows has %d chunks", n, wantWide)
	}
	var wg sync.WaitGroup
	for _, c := range []struct {
		job  *Job
		want int
	}{{narrow, wantNarrow}, {wide, wantWide}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				p := NewPlan(c.job, n)
				var ran atomic.Int64
				p.Run(func(_, lo, hi int) { ran.Add(1) })
				if p.Chunks() != c.want || ran.Load() != int64(c.want) {
					t.Errorf("width %d: %d chunks planned, %d run; want %d", c.job.width(), p.Chunks(), ran.Load(), c.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
