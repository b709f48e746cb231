package jobs

import (
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
)

// TestPlanFingerprintMatchesFingerprint pins the contract that lets Submit
// derive validation, fingerprint and plan from one resolution pass: for any
// normalized spec, planFingerprint's digest is byte-for-byte Fingerprint()
// (the uncached plan), whether the axis cache is absent, cold, or warm —
// and the planned cells (labels, keys, denominators) are identical in all
// three modes. A cache that changed any planned byte would silently
// corrupt the result cache, so this is the regression guard for axisCache.
func TestPlanFingerprintMatchesFingerprint(t *testing.T) {
	specs := map[string]Spec{
		// The canonical rewrite of the flat payload {users: 5, seed: 3, duration: 20m}.
		"legacy-flat": defaultSpec(5, 3, "20m"),
		"grid":        gridSpec(),
		// Alias spelling must fingerprint as its canonical resolution.
		"alias": withScheme(defaultSpec(2, 9, "4h"), "", policy.Spec{Name: "4.5s"}, nil),
	}
	for name, raw := range specs {
		t.Run(name, func(t *testing.T) {
			s := raw.withDefaults()
			want := mustFingerprint(t, s)
			wantCells := len(s.Schemes) * len(s.Profiles) * len(s.Cohorts)
			opts := fleet.Options{Shards: s.Shards}

			shared := newAxisCache()
			var ref []gridCell
			passes := []struct {
				pass string
				axes axisCache
			}{{"nil-cache", axisCache{}}, {"cold-cache", shared}, {"warm-cache", shared}}
			for _, p := range passes {
				pass, axes := p.pass, p.axes
				cells, fp, err := s.planFingerprint(opts, axes)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				if fp != want {
					t.Fatalf("%s: planFingerprint %s != Fingerprint %s", pass, fp, want)
				}
				if len(cells) != wantCells {
					t.Fatalf("%s: %d cells, want %d", pass, len(cells), wantCells)
				}
				if ref == nil {
					ref = cells
					continue
				}
				for i := range cells {
					got, exp := cells[i], ref[i]
					if got.Key != exp.Key || got.Scheme != exp.Scheme ||
						got.Profile != exp.Profile || got.Cohort != exp.Cohort ||
						got.NumJobs != exp.NumJobs || got.Shards != exp.Shards {
						t.Fatalf("%s: cell %d diverged: %+v != %+v", pass, i, got, exp)
					}
				}
			}
		})
	}
}

// TestAxisCacheTypeTaggedKeys pins the collision property of the axis-key
// encoding: distinct requests never share a key, so a spelling that fails
// resolution can never hit a cached success. Values that differ only in
// dynamic type (int 4 vs string "4") stay distinct, and no bytes in a
// label, name or parameter can shift a field boundary.
func TestAxisCacheTypeTaggedKeys(t *testing.T) {
	learn := &policy.Spec{Name: "learn"}
	for _, c := range []struct {
		name string
		a, b string
	}{
		{"cohort int vs string param",
			cohortKey(fleet.CohortSpec{Name: "study-3g", Params: map[string]any{"users": 4}}, 1, time.Second),
			cohortKey(fleet.CohortSpec{Name: "study-3g", Params: map[string]any{"users": "4"}}, 1, time.Second)},
		{"scheme label NUL shifted into the demote name",
			schemeKey(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle"}, Active: learn}),
			schemeKey(fleet.SchemeSpec{Label: "\x00makeidle", Policy: policy.Spec{Name: "learn"}})},
		{"active spec present vs absent",
			schemeKey(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle"}}),
			schemeKey(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{}})},
		{"param value bytes shifted into the next key",
			schemeKey(fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail",
				Params: map[string]any{"a": "1\x00string\x00b", "c": "2"}}}),
			schemeKey(fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail",
				Params: map[string]any{"a": "1", "b\x00string\x00c": "2"}}})},
		{"profile label NUL shifted into the name",
			profileKey(power.ProfileSpec{Label: "a\x00b", Name: "c"}),
			profileKey(power.ProfileSpec{Label: "a", Name: "b\x00c"})},
		{"cohort label digits shifted into the burst gap",
			cohortKey(fleet.CohortSpec{Label: "1", Name: "study-3g"}, 1, 2),
			cohortKey(fleet.CohortSpec{Label: "", Name: "study-3g"}, 1, 21)},
	} {
		if c.a == c.b {
			t.Errorf("%s: keys collide: %q", c.name, c.a)
		}
	}
}

// TestAxisCacheWarmErrorMatchesCold: admission never depends on cache
// state. A spec the cold planner rejects is rejected with the same error
// after an earlier Submit warmed the axis cache with its closest valid
// neighbour.
func TestAxisCacheWarmErrorMatchesCold(t *testing.T) {
	warm := gridSpec()
	warm.Schemes = []fleet.SchemeSpec{{Policy: policy.Spec{Name: "makeidle"},
		Active: &policy.Spec{Name: "learn"}}}
	bad := warm
	bad.Schemes = []fleet.SchemeSpec{{Label: "\x00makeidle", Policy: policy.Spec{Name: "learn"}}}
	_, cold := bad.Fingerprint()
	if cold == nil {
		t.Fatal("cold planner accepted a demote policy named learn")
	}

	m := NewManager(Config{Runners: 1, CacheSize: -1,
		runFleet: blockingRunner(nil, nil)})
	defer m.Close()
	if _, err := m.Submit(warm); err != nil {
		t.Fatal(err)
	}
	_, err := m.Submit(bad)
	if err == nil || err.Error() != cold.Error() {
		t.Fatalf("warm-cache Submit error %v, cold %v", err, cold)
	}
}
