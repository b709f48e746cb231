package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig9 regenerates Figure 9: energy saved per application category by each
// of the six schemes, on a 3G profile (T-Mobile, the network of the
// paper's per-application phones). The (app × scheme) matrix fans out
// across the fleet pool.
func Fig9(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	apps := workload.Apps()
	traces := make([]trace.Trace, len(apps))
	seeds := make([]int64, len(apps))
	for i, app := range apps {
		seeds[i] = cfg.Seed + int64(i)
		traces[i] = workload.Generate(app, seeds[i], cfg.AppDuration)
	}
	schemes := FleetSchemes(0)
	jobs := schemeMatrixJobs(traces, seeds, power.TMobile3G, schemes, nil)
	cells, err := fleet.Run(jobs, cfg.fleetOpts(), fleet.Collect(outcomeResult))
	if err != nil {
		return "", fmt.Errorf("fig9: %w", err)
	}

	headers := append([]string{"Application"}, SchemeNames()...)
	t := report.NewTable("Figure 9: energy saved per application (%, T-Mobile 3G)", headers...)
	stride := 1 + len(schemes)
	for i, app := range apps {
		_, results := schemeResultsFrom(cells, i*stride, schemes)
		row := []interface{}{app.Name()}
		for _, s := range results {
			row = append(row, s.SavingsPct)
		}
		t.AddRowf(row...)
	}
	return t.String(), nil
}

// perUserTables runs the six schemes for every user of a cohort on the
// fleet and renders the three panels of Figs. 10/11: savings, normalized
// switches, and energy saved per switch.
func perUserTables(title string, users []workload.User, prof power.Profile, cfg Config) (string, error) {
	traces, seeds := userTraces(users, cfg.Seed, cfg.UserDuration)
	schemes := FleetSchemes(0)
	jobs := schemeMatrixJobs(traces, seeds, prof, schemes, nil)
	cells, err := fleet.Run(jobs, cfg.fleetOpts(), fleet.Collect(outcomeResult))
	if err != nil {
		return "", fmt.Errorf("%s: %w", title, err)
	}

	headers := append([]string{"User"}, SchemeNames()...)
	savings := report.NewTable(title+" (a) energy saved (%)", headers...)
	switches := report.NewTable(title+" (b) state switches normalized by status quo", headers...)
	perSwitch := report.NewTable(title+" (c) energy saved per state switch (J)", headers...)

	stride := 1 + len(schemes)
	for i, u := range users {
		_, results := schemeResultsFrom(cells, i*stride, schemes)
		rowA := []interface{}{u.Name}
		rowB := []interface{}{u.Name}
		rowC := []interface{}{u.Name}
		for _, s := range results {
			rowA = append(rowA, s.SavingsPct)
			rowB = append(rowB, s.SwitchRatio)
			rowC = append(rowC, s.SavedPerSwitchJ)
		}
		savings.AddRowf(rowA...)
		switches.AddRowf(rowB...)
		perSwitch.AddRowf(rowC...)
	}
	return savings.String() + "\n" + switches.String() + "\n" + perSwitch.String(), nil
}

// Fig10 regenerates Figure 10: per-user results in the Verizon 3G network.
func Fig10(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	return perUserTables("Figure 10: Verizon 3G", workload.Verizon3GUsers(), power.Verizon3G, cfg)
}

// Fig11 regenerates Figure 11: per-user results in the Verizon LTE network.
func Fig11(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	return perUserTables("Figure 11: Verizon LTE", workload.VerizonLTEUsers(), power.VerizonLTE, cfg)
}

// CarrierResult is one carrier's row of Figs. 17/18: each scheme's
// cohort-mean energy savings and normalized state-switch count.
type CarrierResult struct {
	Carrier string
	Savings map[string]float64
	Ratios  map[string]float64
}

// CarrierResults runs the study cohort against the four Table 2 carriers —
// the computation behind Figs. 17/18 — as one scheme × carrier grid job.
// The same cohort (the full 3G study mixes, stationary, one user per mix)
// is replayed against every carrier, as in §6.5. Rows come in figure
// order, and results are identical for any worker count.
func CarrierResults(cfg Config) ([]CarrierResult, error) {
	cfg = cfg.withDefaults()
	var profiles []power.ProfileSpec
	for _, prof := range power.Carriers() {
		profiles = append(profiles, power.ProfileSpec{Label: prof.Name, Name: prof.Name})
	}
	res, err := cfg.runGrid(jobs.Spec{
		Schemes:  PaperSchemeSpecs(0),
		Profiles: profiles,
		Cohorts: []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{
			"users":    len(workload.Verizon3GUsers()),
			"duration": cfg.UserDuration.String(),
			"diurnal":  false,
		}}},
	})
	if err != nil {
		return nil, err
	}
	// Cells come profile-major, so each carrier's schemes are contiguous.
	var rows []CarrierResult
	for _, c := range res.Cells {
		if len(rows) == 0 || rows[len(rows)-1].Carrier != c.Profile {
			rows = append(rows, CarrierResult{
				Carrier: c.Profile, Savings: map[string]float64{}, Ratios: map[string]float64{},
			})
		}
		a := c.Summary.Schemes[c.Scheme]
		rows[len(rows)-1].Savings[c.Scheme] = a.SavingsPct.Mean
		rows[len(rows)-1].Ratios[c.Scheme] = a.SwitchRatio.Mean
	}
	return rows, nil
}

// carrierTable renders one per-carrier metric of CarrierResults as a
// carrier × scheme table.
func carrierTable(cfg Config, title string, metric func(CarrierResult) map[string]float64) (string, error) {
	rows, err := CarrierResults(cfg)
	if err != nil {
		return "", err
	}
	headers := append([]string{"Carrier"}, SchemeNames()...)
	t := report.NewTable(title, headers...)
	for _, r := range rows {
		m := metric(r)
		row := []interface{}{r.Carrier}
		for _, k := range schemeOrder(m) {
			row = append(row, m[k])
		}
		t.AddRowf(row...)
	}
	return t.String(), nil
}

// Fig17 regenerates Figure 17: mean energy saved per carrier per scheme.
func Fig17(cfg Config) (string, error) {
	out, err := carrierTable(cfg, "Figure 17: energy saved for different carrier parameters (%)",
		func(r CarrierResult) map[string]float64 { return r.Savings })
	if err != nil {
		return "", fmt.Errorf("fig17: %w", err)
	}
	return out, nil
}

// Fig18 regenerates Figure 18: mean state switches normalized by the status
// quo, per carrier per scheme.
func Fig18(cfg Config) (string, error) {
	out, err := carrierTable(cfg, "Figure 18: state switches normalized by status quo",
		func(r CarrierResult) map[string]float64 { return r.Ratios })
	if err != nil {
		return "", fmt.Errorf("fig18: %w", err)
	}
	return out, nil
}

// DormancySensitivity re-runs MakeIdle with the fast-dormancy cost modelled
// at 10/20/40/50% of the radio-off energy (§6.1's robustness check), one
// fleet job per (fraction, policy) over a shared trace.
func DormancySensitivity(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	fractions := []float64{0.1, 0.2, 0.4, 0.5}

	mi := fleet.MakeIdleScheme()
	src := traceSource(tr)
	var jobs []fleet.Job
	for _, f := range fractions {
		prof := power.Verizon3G.WithDormancyFraction(f)
		for _, s := range []fleet.Scheme{fleet.StatusQuoScheme(), mi} {
			jobs = append(jobs, fleet.Job{
				Source:   src,
				Profile:  prof,
				Scheme:   s.Name,
				Demote:   s.Demote,
				Active:   s.Active,
				FitTrace: s.FitTrace,
			})
		}
	}
	cells, err := fleet.Run(jobs, cfg.fleetOpts(), fleet.Collect(outcomeResult))
	if err != nil {
		return "", err
	}

	t := report.NewTable("Sensitivity: MakeIdle savings vs fast-dormancy cost fraction (Verizon 3G, user1)",
		"Fraction", "Savings(%)", "Switches/statusquo")
	for i, f := range fractions {
		_, results := schemeResultsFrom(cells, i*2, []fleet.Scheme{mi})
		t.AddRowf(f, results[0].SavingsPct, results[0].SwitchRatio)
	}
	return t.String(), nil
}
