package mal

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/par"
)

// testHook, when non-nil, runs before every interpreted instruction.
// Tests install it to inject panics or stalls deep inside query
// execution; production code never sets it, so the cost is one atomic
// load per instruction.
var testHook atomic.Pointer[func(*Instr)]

// SetTestHook installs f to run before each instruction (nil removes
// it). It returns the previous hook so tests can restore it.
func SetTestHook(f func(*Instr)) func(*Instr) {
	var prev *func(*Instr)
	if f == nil {
		prev = testHook.Swap(nil)
	} else {
		prev = testHook.Swap(&f)
	}
	if prev == nil {
		return nil
	}
	return *prev
}

func runHook(in *Instr) {
	if h := testHook.Load(); h != nil {
		(*h)(in)
	}
}

// RunCtx executes a program under ctx. A cancellation Job is attached
// to the interpreter goroutine so running kernels abort at morsel
// granularity when ctx is cancelled, and ctx.Err() is checked between
// instructions and after the last one, so a partially produced result
// (a kernel cut short mid-plan returns truncated BATs) is always
// discarded rather than returned.
func RunCtx(ctx context.Context, p *Program) (*Ctx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A context that can never be cancelled (Background/TODO) skips the
	// Job registry.
	if ctx.Done() != nil {
		job := par.NewJob()
		par.AttachJob(job)
		defer par.DetachJob()
		stop := context.AfterFunc(ctx, job.Cancel)
		defer stop()
	}

	c := &Ctx{Vars: make([]any, p.NVars)}
	for i := range p.Instrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runHook(&p.Instrs[i])
		if err := c.exec(&p.Instrs[i]); err != nil {
			if errors.Is(err, par.ErrCanceled) && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("%s.%s: %v", p.Instrs[i].Module, p.Instrs[i].Fn, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c, nil
}
