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
// thousand rows. A nil job means the default shape; one is made only when
// ctx can be cancelled. hook, when non-nil, runs before every instruction
// (tests inject panics and stalls deep inside a query with it). ctx.Err()
// is checked between instructions and after the last one, so a partially
// produced result (a kernel cut short mid-plan returns truncated BATs) is
// always discarded rather than returned.
func Run(ctx context.Context, p *Program, job *par.Job, hook func(*Instr)) (*Ctx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A context that can never be cancelled (Background/TODO) needs no
	// cancellation wiring.
	if ctx.Done() != nil {
		if job == nil {
			job = par.NewJob(0, 0)
		}
		stop := context.AfterFunc(ctx, job.Cancel)
		defer stop()
	}
	c := &Ctx{Vars: make([]any, p.NVars), job: job}
	for i := range p.Instrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if hook != nil {
			hook(&p.Instrs[i])
		}
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
