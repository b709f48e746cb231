package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/workload"
)

// quickCfg keeps experiment tests fast while leaving enough traffic for
// stable qualitative results.
func quickCfg() Config {
	return Config{Seed: 42, AppDuration: time.Hour, UserDuration: 2 * time.Hour}
}

func TestAllExperimentsRun(t *testing.T) {
	cfg := Config{Seed: 7, AppDuration: 20 * time.Minute, UserDuration: 30 * time.Minute}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if strings.TrimSpace(out) == "" {
				t.Fatalf("%s: empty output", e.ID)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig9"); !ok {
		t.Fatal("fig9 not registered")
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("unknown id found")
	}
	if len(All()) < 15 {
		t.Fatalf("only %d experiments registered", len(All()))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed == 0 || c.AppDuration == 0 || c.UserDuration == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c2 := Config{Seed: 9, AppDuration: time.Minute, UserDuration: time.Minute}.withDefaults()
	if c2.Seed != 9 || c2.AppDuration != time.Minute {
		t.Fatalf("explicit values overridden: %+v", c2)
	}
}

// TestPaperShapeHoldsOnUserMix verifies the headline qualitative results of
// the paper on one user mix: MakeIdle beats the fixed baselines, lands near
// the Oracle, and MakeActive brings switches back toward the status quo.
func TestPaperShapeHoldsOnUserMix(t *testing.T) {
	cfg := quickCfg()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	_, schemes, err := RunSchemes(tr, power.Verizon3G, nil)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]SchemeResult{}
	for _, s := range schemes {
		by[s.Scheme] = s
	}

	mi := by[SchemeMakeIdle]
	or := by[SchemeOracle]
	ff := by[SchemeFourFive]
	learn := by[SchemeCombLearn]
	fix := by[SchemeCombFix]

	if mi.SavingsPct <= 0 {
		t.Fatalf("MakeIdle savings %.1f%% not positive", mi.SavingsPct)
	}
	if or.SavingsPct <= 0 {
		t.Fatalf("Oracle savings %.1f%% not positive", or.SavingsPct)
	}
	if mi.SavingsPct <= ff.SavingsPct {
		t.Fatalf("MakeIdle (%.1f%%) should beat 4.5-second (%.1f%%)", mi.SavingsPct, ff.SavingsPct)
	}
	// MakeIdle close to the Oracle (paper: consistently close).
	if or.SavingsPct-mi.SavingsPct > 15 {
		t.Fatalf("MakeIdle (%.1f%%) far below Oracle (%.1f%%)", mi.SavingsPct, or.SavingsPct)
	}
	// MakeIdle alone multiplies switches; MakeActive brings them down.
	if mi.SwitchRatio <= 1 {
		t.Logf("note: MakeIdle switch ratio %.2f (usually > 1)", mi.SwitchRatio)
	}
	if learn.SwitchRatio >= mi.SwitchRatio {
		t.Fatalf("MakeActive-Learn did not reduce switches: %.2f vs %.2f",
			learn.SwitchRatio, mi.SwitchRatio)
	}
	if fix.SwitchRatio >= mi.SwitchRatio {
		t.Fatalf("MakeActive-Fix did not reduce switches: %.2f vs %.2f",
			fix.SwitchRatio, mi.SwitchRatio)
	}
	// Combined methods keep (or improve) the savings.
	if learn.SavingsPct < mi.SavingsPct-10 {
		t.Fatalf("combined learn savings collapsed: %.1f%% vs MakeIdle %.1f%%",
			learn.SavingsPct, mi.SavingsPct)
	}
}

func TestHeadlineSavingsBand(t *testing.T) {
	// The paper reports 51-66% savings for MakeIdle on 3G and 67% on LTE.
	// Synthetic traces will not match exactly; require the right ballpark
	// (>= 30% on both Verizon profiles for the averaged cohort).
	rows, err := CarrierResults(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Carrier != power.Verizon3G.Name && r.Carrier != power.VerizonLTE.Name {
			continue
		}
		savings := r.Savings
		if got := savings[SchemeMakeIdle]; got < 30 {
			t.Errorf("%s: MakeIdle mean savings %.1f%% below plausibility band", r.Carrier, got)
		}
		if savings[SchemeOracle] < savings[SchemeMakeIdle]-15 {
			t.Errorf("%s: Oracle (%.1f%%) implausibly below MakeIdle (%.1f%%)",
				r.Carrier, savings[SchemeOracle], savings[SchemeMakeIdle])
		}
	}
}

func TestEnergyModelErrorWithinBand(t *testing.T) {
	// Fig. 8: the coarse model should sit within ~10-15% of the
	// fine-grained synthetic measurement.
	var errs []float64
	for _, prof := range []power.Profile{power.Verizon3G, power.VerizonLTE} {
		for _, kb := range []int{10, 100, 1000} {
			for run := 0; run < 5; run++ {
				e, err := EnergyModelError(prof, kb*1000, int64(kb+run))
				if err != nil {
					t.Fatal(err)
				}
				errs = append(errs, e)
				if math.Abs(e) > 0.25 {
					t.Errorf("%s %dkB run %d: error %.3f out of band", prof.Name, kb, run, e)
				}
			}
		}
	}
	if m := metrics.MeanAbs(errs); m > 0.15 {
		t.Errorf("mean |error| = %.3f, want <= 0.15", m)
	}
}

func TestWindowSweepShape(t *testing.T) {
	// Fig. 13: FP rate should not grow as the window grows; small windows
	// are the noisy ones.
	cfg := quickCfg()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)

	confusionAt := func(n int) metrics.Confusion {
		mi, err := policy.NewMakeIdle(power.Verizon3G, policy.WithWindowSize(n))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ConfusionFor(tr, power.Verizon3G, mi)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	small := confusionAt(10)
	large := confusionAt(400)
	if large.FalsePositiveRate() > small.FalsePositiveRate()+5 {
		t.Errorf("FP grew with window size: n=10 %.1f%%, n=400 %.1f%%",
			small.FalsePositiveRate(), large.FalsePositiveRate())
	}
}

func TestTwaitTrajectoryNonEmpty(t *testing.T) {
	cfg := quickCfg()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	s, err := TwaitTrajectory(tr, power.Verizon3G, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) == 0 {
		t.Fatal("no t_wait points recorded")
	}
	p := power.Verizon3G
	_ = p
	for _, y := range s.Y {
		if y < 0 || y > power.Verizon3G.Tail().Seconds() {
			t.Fatalf("t_wait %v out of range", y)
		}
	}
}

func TestDelayComparisonLearnBeatsFixed(t *testing.T) {
	// Fig. 15: learning cuts the average delay versus the fixed bound.
	cfg := quickCfg()
	u := workload.Verizon3GUsers()[3] // four-app mix: plenty of batching
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	learn, fixed, err := DelayComparison(tr, power.Verizon3G)
	if err != nil {
		t.Fatal(err)
	}
	if learn.Count == 0 || fixed.Count == 0 {
		t.Fatalf("no delays recorded: learn=%d fixed=%d", learn.Count, fixed.Count)
	}
	if learn.Mean >= fixed.Mean {
		t.Errorf("learning mean delay %v not below fixed %v", learn.Mean, fixed.Mean)
	}
}

func TestCarrierResultsDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, AppDuration: 30 * time.Minute, UserDuration: time.Hour}
	a, err := CarrierResults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CarrierResults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || len(b) != len(a) {
		t.Fatalf("got %d and %d carrier rows, want 4", len(a), len(b))
	}
	for i := range a {
		for k, v := range a[i].Savings {
			if math.Abs(b[i].Savings[k]-v) > 1e-9 {
				t.Fatalf("%s scheme %s differs across identical runs: %v vs %v",
					a[i].Carrier, k, v, b[i].Savings[k])
			}
		}
	}
}
