package policy_test

import (
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestMakeIdleRechecksPerDecision replays a day of a study-3g user (the
// cohort's diurnal wrap of the first Verizon 3G mix) on each paper carrier
// at the §4.2 defaults and bounds the certified search's cost: on average
// at most two waits per decision need the exact window-order evaluation.
func TestMakeIdleRechecksPerDecision(t *testing.T) {
	tr := workload.DayUser(workload.Verizon3GUsers()[0]).Generate(1, 24*time.Hour)
	for _, p := range power.Carriers() {
		mi, err := policy.NewMakeIdle(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(tr, p, mi, nil, nil); err != nil {
			t.Fatal(err)
		}
		decisions, rechecks := mi.DecisionStats()
		if decisions < 1000 {
			t.Fatalf("%s: only %d decisions from %d packets", p.Name, decisions, len(tr))
		}
		per := float64(rechecks) / float64(decisions)
		t.Logf("%s: %d decisions, %.3f rechecks per decision", p.Name, decisions, per)
		if per > 2 {
			t.Errorf("%s: %.3f exact re-evaluations per decision, want <= 2", p.Name, per)
		}
	}
}
