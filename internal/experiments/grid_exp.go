package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/policy"
	"repro/internal/power"
)

// This file is the experiments-layer face of the sweep grid: grid
// experiments are jobs.Spec clients of an in-process jobs.Manager, the
// same executor (cell scheduler, trace cache, cell cache) the service
// runs, so a figure's cells are byte-identical to the service's grid
// cells on the same spec. The cross-carrier figures (17/18), the tail
// sweep and the grid experiment are built on it.

// RunGrid executes a grid spec on an in-process jobs.Manager and returns
// the finished result. workers sizes the manager's worker budget (0 = all
// cores); it never changes results.
func RunGrid(spec jobs.Spec, workers int) (*jobs.Result, error) {
	m := jobs.NewManager(jobs.Config{Workers: workers})
	defer m.Close()
	job, err := m.Submit(spec)
	if err != nil {
		return nil, err
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		return nil, err
	}
	return job.Result(), nil
}

// runGrid runs spec rooted at the config's seed, shard count and worker
// budget.
func (c Config) runGrid(spec jobs.Spec) (*jobs.Result, error) {
	spec.Seed, spec.Shards = c.Seed, c.Shards
	return RunGrid(spec, c.Workers)
}

// GridSweep is the registry-era three-axis parameter study: a grid of
// dormancy schemes × carrier profiles (one a parameterized what-if: the
// paper's LTE carrier with its timer halved) × cohort families, every
// axis value a spec resolved against its registry — the §6.5
// cross-carrier question generalized to arbitrary carrier and workload
// hypotheticals, exactly as the service's grid jobs run it.
func GridSweep(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	dur := cfg.UserDuration.String()
	spec := jobs.Spec{
		Schemes: []fleet.SchemeSpec{
			{Label: SchemeFourFive, Policy: policy.Spec{Name: "4.5s"}},
			{Label: SchemeMakeIdle, Policy: policy.Spec{Name: "makeidle"}},
		},
		Profiles: []power.ProfileSpec{
			{Name: "verizon-3g"},
			{Name: "verizon-lte"},
			{Name: "verizon-lte", Params: map[string]any{"t1": "5s"}},
		},
		Cohorts: []fleet.CohortSpec{
			{Name: "study-3g", Params: map[string]any{"users": cfg.Users, "duration": dur}},
			{Name: "mix", Params: map[string]any{"users": cfg.Users, "duration": dur, "im": 2, "email": 1}},
		},
	}
	res, err := cfg.runGrid(spec)
	if err != nil {
		return "", fmt.Errorf("grid: %w", err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Sweep grid: %d schemes x %d profiles x %d cohorts = %d cells (seed %d)\n",
		len(spec.Schemes), len(spec.Profiles), len(spec.Cohorts), len(res.Cells), cfg.Seed)
	sb.WriteString(res.Text())
	return sb.String(), nil
}
