package exp

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// CellID builds the journal/store identity of one (workload, scheme,
// profile) cell under this context's scale, seed, params, and engine
// revision — the content-hash key the result store memoizes on.
func (c *Context) CellID(workload string, kind arch.Kind, profile *trace.Profile) journal.Cell {
	return c.newCellRun(c.Params, profile).cellID(workload, kind, c.Seed)
}

// RunSingle executes one cell with the full matrix-cell machinery —
// parameter validation, panic isolation (a panicking simulation comes
// back as a *CellError with the stack, never up the caller's stack),
// CellTimeout, chaos injection, and metrics accumulation — but without
// the matrix's store consultation (Context.Store is ignored): callers
// like the service's result store own the caching story. This is the simulation entry point of
// simulation-as-a-service (internal/service).
func (c *Context) RunSingle(ctx context.Context, workload string, kind arch.Kind, profile *trace.Profile) (*sim.Result, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	if err := c.Params.Validate(); err != nil {
		return nil, fmt.Errorf("exp: invalid params: %w", err)
	}
	if ctx == nil {
		ctx = c.ctx()
	}
	return c.runCell(ctx, c.newCellRun(c.Params, profile), cellJob{w, kind, c.Seed})
}
