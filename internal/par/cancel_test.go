package par

import (
	"errors"
	"fmt"
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
	j := NewJob(0, 0)
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
	j := NewJob(4, 64)

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
	j := NewJob(0, 0)
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
	j := NewJob(4, 64)
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

// TestPlanShapeIgnoresJob: a plan's shape depends on its job's width and
// cutoff only: a cancelled job is cut like a live one at every width, and
// a nil job like a default one.
func TestPlanShapeIgnoresJob(t *testing.T) {
	samePlans := func(label string, a, b Plan) {
		t.Helper()
		if a.Size != b.Size || a.Chunks() != b.Chunks() || a.width != b.width {
			t.Errorf("%s: plan %+v, want %+v", label, b, a)
		}
	}
	for _, n := range []int{0, 100, 4096, 5000, 1 << 19, 10_000_000} {
		for _, w := range []int{1, 2, 8} {
			canceled := NewJob(w, 64)
			canceled.Cancel()
			samePlans(fmt.Sprintf("width %d, n %d", w, n), NewPlan(NewJob(w, 64), n), NewPlan(canceled, n))
		}
		samePlans(fmt.Sprintf("nil job, n %d", n), NewPlan(NewJob(0, 0), n), NewPlan(nil, n))
	}
}

// TestRunErrSerialCancelMidChunk: a job cancelled while a serial plan's
// only chunk runs still makes RunErr report ErrCanceled.
func TestRunErrSerialCancelMidChunk(t *testing.T) {
	j := NewJob(0, 0)
	err := Serial(j, 100).RunErr(func(c, lo, hi int) error { j.Cancel(); return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
