package par

import (
	"errors"
	"sync"
	"testing"
)

func TestJobNilSafe(t *testing.T) {
	var j *Job
	if j.Canceled() {
		t.Fatal("nil job must read as not cancelled")
	}
}

func TestRunErrSerialCancel(t *testing.T) {
	j := NewJob()
	j.Cancel()
	ran := false
	err := Serial(j, 100).RunErr(func(c, lo, hi int) error { ran = true; return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("cancelled serial plan must not run its body")
	}
}

func TestRunErrParallelCancelMidway(t *testing.T) {
	oldT := SetThreads(4)
	oldM := SetMorselThreshold(64)
	defer func() { SetThreads(oldT); SetMorselThreshold(oldM) }()

	j := NewJob()

	var mu sync.Mutex
	seen := 0
	err := NewPlan(j, 100000).RunErr(func(c, lo, hi int) error {
		mu.Lock()
		seen++
		if seen == 2 {
			j.Cancel()
		}
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := NewPlan(j, 100000).Chunks(); seen >= n {
		t.Fatalf("cancellation must stop morsel claiming early: ran %d of %d chunks", seen, n)
	}
}

func TestRunErrErrorBeatsCancel(t *testing.T) {
	j := NewJob()
	boom := errors.New("boom")
	err := Serial(j, 10).RunErr(func(c, lo, hi int) error {
		j.Cancel()
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the kernel error", err)
	}
}

func TestHelpersInheritJob(t *testing.T) {
	oldT := SetThreads(4)
	oldM := SetMorselThreshold(64)
	defer func() { SetThreads(oldT); SetMorselThreshold(oldM) }()

	j := NewJob()
	j.Cancel()
	// All morsels are skipped: the claim loop checks the plan's job even
	// on pool helpers.
	ran := 0
	var mu sync.Mutex
	err := NewPlan(j, 100000).RunErr(func(c, lo, hi int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, ErrCanceled) || ran != 0 {
		t.Fatalf("err = %v, ran = %d; want ErrCanceled and zero morsels", err, ran)
	}
}

// TestPlanShapeIgnoresJob: a cancellable plan is cut exactly like an
// uncancellable one, at every width.
func TestPlanShapeIgnoresJob(t *testing.T) {
	oldM := SetMorselThreshold(64)
	defer SetMorselThreshold(oldM)
	for _, w := range []int{1, 2, 8} {
		oldT := SetThreads(w)
		for _, n := range []int{0, 100, 4096, 5000, 1 << 19, 10_000_000} {
			a, b := NewPlan(nil, n), NewPlan(NewJob(), n)
			if a.Size != b.Size || a.Chunks() != b.Chunks() || a.width != b.width {
				t.Errorf("width %d, n %d: plan %+v with a job, %+v without", w, n, b, a)
			}
		}
		SetThreads(oldT)
	}
}

// TestRunErrSerialCancelMidChunk: a job cancelled while a serial plan's
// only chunk runs still makes RunErr report ErrCanceled.
func TestRunErrSerialCancelMidChunk(t *testing.T) {
	j := NewJob()
	err := Serial(j, 100).RunErr(func(c, lo, hi int) error { j.Cancel(); return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
