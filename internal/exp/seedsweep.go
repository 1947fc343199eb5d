// Monte-Carlo seed sweep: the same (workload, scheme) matrix as the
// speedup figures, but across many power-trace seeds per cell, so each
// speedup is reported as a mean with a 95% confidence interval instead of
// a single-timeline point estimate. Every seed of every cell is one cell
// of the shared runner (runCells), so seeds run in parallel on the
// matrix worker pool and are remembered by the same store.
package exp

import (
	"repro/internal/arch"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SweepCell is one (workload, scheme) cell of a seed sweep: the speedup
// over NVP aggregated across seeds.
type SweepCell struct {
	Workload string
	Kind     arch.Kind
	// N is the number of seeds contributing; Mean and Half are the mean
	// speedup over NVP (same seed, same timeline) and the half-width of
	// its 95% Student-t confidence interval.
	N    int
	Mean float64
	Half float64
}

// SweepResult is the outcome of a seed-sweep experiment.
type SweepResult struct {
	Profile trace.Profile
	Seeds   int
	Kinds   []arch.Kind
	Names   []string
	Cells   map[cell]SweepCell
}

// Get returns the aggregated cell for (workload, kind).
func (r *SweepResult) Get(name string, k arch.Kind) SweepCell {
	return r.Cells[cell{name, k}]
}

// SeedSweep runs every workload on NVP plus the requested kinds under
// `c.Seeds` power-trace seeds of the profile (seeds c.Seed through
// c.Seed+c.Seeds-1) and aggregates per-seed speedups over NVP into
// mean ± 95% CI per cell.
//
// Each seed is its own runner cell, so the resilience contract is
// runMatrix's at per-seed granularity: each failed seed is reported as
// its own *CellError carrying the exact (workload, scheme, profile, seed,
// params) identity, healthy seeds' results stand, and with a store
// attached every completed seed is durable under the identity a
// single-seed matrix uses — a sweep interrupted and rerun resumes seed
// by seed, and a seed proven by a Figure 6 run is never re-simulated.
func (c *Context) SeedSweep(profile trace.Profile, kinds []arch.Kind) (*SweepResult, error) {
	seeds := max(c.Seeds, 1)
	runs, err := c.runCells(kinds, seeds, &profile, c.Params)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Profile: profile, Seeds: seeds, Kinds: runs.kinds[1:],
		Names: runs.names, Cells: map[cell]SweepCell{}}
	for _, name := range res.Names {
		base := runs.res[cell{name, arch.NVP}]
		for _, k := range res.Kinds {
			spd := make([]float64, seeds)
			for i, r := range runs.res[cell{name, k}] {
				spd[i] = float64(base[i].TimeNs) / float64(r.TimeNs)
			}
			mean, half := stats.MeanCI(spd)
			res.Cells[cell{name, k}] = SweepCell{Workload: name, Kind: k,
				N: seeds, Mean: mean, Half: half}
		}
	}

	c.printf("seed sweep under %s — speedups over NVP, mean ±95%% CI over %d seeds\n",
		profile, seeds)
	c.printf("%-13s", "benchmark")
	for _, k := range res.Kinds {
		c.printf(" %16v", k)
	}
	c.printf("\n")
	for _, name := range res.Names {
		c.printf("%-13s", name)
		for _, k := range res.Kinds {
			sc := res.Get(name, k)
			c.printf("      %5.2f ±%4.2f", sc.Mean, sc.Half)
		}
		c.printf("\n")
	}
	c.printf("\n")
	return res, nil
}

// Sweep is the seed-sweep experiment as the sweepexp command runs it:
// the Figure 6 configuration (RF-Home harvest, the four evaluated
// schemes) across c.Seeds seeds.
func (c *Context) Sweep() (*SweepResult, error) {
	return c.SeedSweep(trace.RFHome, evalKinds)
}
