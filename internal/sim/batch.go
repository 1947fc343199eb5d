package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/trace"
)

// BatchOptions configures one RunBatch call. The per-run knobs carry
// Options' semantics and apply to every lane uniformly.
type BatchOptions struct {
	// Sources holds one power trace per lane (same length as the scheme
	// slice). Batched runs are always harvested — an outage-free run has
	// no seed to sweep, so there is nothing to batch.
	Sources []trace.Source
	// Ctx, when non-nil, cancels the batch: the running lane stops as Run
	// would, and every later lane returns a *CanceledError without
	// retiring an instruction.
	Ctx             context.Context
	MaxInstructions uint64
	StagnationNs    int64
	RegionHistMax   int
}

// RunBatch executes the linked program once per scheme, lane i drawing
// power from opt.Sources[i]. The schemes must be distinct instances of the
// same configuration (same Name and Params): a batch is the seeds of one
// cell. Lanes run one after another, each through Run, so every lane's
// result is exactly the scalar run with its seed. It returns one Result
// and one error slot per lane (results[i] is meaningful even when errs[i]
// is non-nil, as with Run), plus a batch-level configuration error.
func RunBatch(l *ir.Linked, schemes []arch.Scheme, opt BatchOptions) ([]*Result, []error, error) {
	n := len(schemes)
	if n == 0 {
		return nil, nil, errors.New("sim: RunBatch needs at least one scheme")
	}
	if len(opt.Sources) != n {
		return nil, nil, fmt.Errorf("sim: RunBatch got %d schemes but %d sources", n, len(opt.Sources))
	}
	for i, src := range opt.Sources {
		if src == nil {
			return nil, nil, fmt.Errorf("sim: RunBatch source %d is nil", i)
		}
	}
	name, p0 := schemes[0].Name(), schemes[0].Params()
	for i, s := range schemes {
		if s.Name() != name {
			return nil, nil, fmt.Errorf("sim: RunBatch lane %d is %s, lane 0 is %s — lanes must share one configuration", i, s.Name(), name)
		}
		if s.Params() != p0 {
			return nil, nil, fmt.Errorf("sim: RunBatch lane %d params differ from lane 0 — lanes must share one configuration", i)
		}
		for j := 0; j < i; j++ {
			if schemes[j] == s {
				return nil, nil, fmt.Errorf("sim: RunBatch lanes %d and %d are the same scheme instance — each lane needs its own", j, i)
			}
		}
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	for i, s := range schemes {
		results[i], errs[i] = Run(l, s, Options{
			Source:          opt.Sources[i],
			Ctx:             opt.Ctx,
			MaxInstructions: opt.MaxInstructions,
			StagnationNs:    opt.StagnationNs,
			RegionHistMax:   opt.RegionHistMax,
		})
		if results[i] == nil {
			// Run returns no Result only when the shared configuration
			// is invalid, which fails every lane alike.
			return nil, nil, errs[i]
		}
	}
	return results, errs, nil
}
