package mal

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/par"
)

// RunCtx executes a program under ctx at the default parallel shape: Run
// without a job or a hook.
func RunCtx(ctx context.Context, p *Program) (*Ctx, error) { return Run(ctx, p, nil, nil) }

// Run executes a program under ctx on job, which every kernel call
// receives: the job fixes the run's parallel width and serial cutoff, and
// ctx's cancellation flags it, so running kernels abort within a few
// thousand rows. A nil job means the default shape. hook, when non-nil,
// runs before every instruction (tests inject panics and stalls deep
// inside a query with it). ctx.Err() is checked between instructions and
// after the last one, so a partially produced result (a kernel cut short
// mid-plan returns truncated BATs) is always discarded rather than
// returned.
//
// For the length of the run the job carries the run's free list: after
// each instruction the variables it used last (see link) leave Vars, and
// the storage of those the list handed out goes back to it for later
// kernels to reuse. Only the results stay in Vars.
func Run(ctx context.Context, p *Program, job *par.Job, hook func(*Instr)) (*Ctx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if job == nil {
		job = par.NewJob(0, 0)
	}
	// A context that can never be cancelled (Background/TODO) needs no
	// cancellation wiring.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, job.Cancel)
		defer stop()
	}
	if len(p.ops) != len(p.Instrs) {
		return nil, fmt.Errorf("mal: program not linked")
	}
	c := &Ctx{Vars: make([]any, p.NVars), job: job}
	job.SetFree(&c.free)
	defer job.SetFree(nil)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if hook != nil {
			hook(in)
		}
		op := p.ops[i]
		if op == nil {
			return nil, fmt.Errorf("%s.%s: unknown MAL instruction", in.Module, in.Fn)
		}
		if err := op(c, in); err != nil {
			if errors.Is(err, par.ErrCanceled) && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("%s.%s: %v", in.Module, in.Fn, err)
		}
		c.release(in, int32(i), p.lastUse)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c, nil
}
