package jobs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
)

// mustFingerprint is Fingerprint for a spec the test expects to be valid.
func mustFingerprint(t *testing.T, s Spec) string {
	t.Helper()
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func sweepSpec(schemes ...fleet.SchemeSpec) Spec {
	s := defaultSpec(5, 3, "30m")
	s.Schemes = schemes
	return s
}

// TestFingerprintStableAcrossParamEncodings: the v3 fingerprint hashes
// canonical scheme encodings, so every way of writing the same sweep —
// alias vs canonical name, omitted vs explicit defaults, string vs
// numeric parameter forms, any param-map construction order — produces
// one fingerprint.
func TestFingerprintStableAcrossParamEncodings(t *testing.T) {
	want := mustFingerprint(t, sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail"}}))
	equivalents := []fleet.SchemeSpec{
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "4.5s"}}},
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "4500ms"}}},
		{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": 4500 * time.Millisecond}}},
		{Policy: policy.Spec{Name: "fixedtail"}, Active: &policy.Spec{Name: "none"}},
		{Label: "fixedtail", Policy: policy.Spec{Name: "fixedtail"}},
	}
	for i, ss := range equivalents {
		if got := mustFingerprint(t, sweepSpec(ss)); got != want {
			t.Errorf("equivalent scheme %d changed the fingerprint", i)
		}
	}

	// Param-map construction order cannot matter: rebuild the same
	// multi-param map across trials (Go randomizes map iteration, so many
	// trials exercise many orders).
	multi := func() map[string]any {
		return map[string]any{"window": 200, "gridsteps": 50, "minsample": 20}
	}
	ref := mustFingerprint(t, sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle", Params: multi()}}))
	for trial := 0; trial < 20; trial++ {
		if mustFingerprint(t, sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle", Params: multi()}})) != ref {
			t.Fatal("fingerprint depends on param map ordering")
		}
	}
}

// TestFingerprintMovesWithAnyParamChange: changing any single parameter
// value, the scheme label, the scheme list, or its order changes the
// fingerprint.
func TestFingerprintMovesWithAnyParamChange(t *testing.T) {
	base := map[string]any{"window": 200, "gridsteps": 50, "minsample": 20}
	mk := func(params map[string]any) Spec {
		return sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "makeidle", Params: params}})
	}
	seen := map[string]string{mustFingerprint(t, mk(base)): "base"}
	for k := range base {
		mutated := map[string]any{}
		for k2, v2 := range base {
			mutated[k2] = v2
		}
		mutated[k] = mutated[k].(int) + 1
		fp := mustFingerprint(t, mk(mutated))
		if prev, dup := seen[fp]; dup {
			t.Fatalf("mutating %q collided with %s", k, prev)
		}
		seen[fp] = k
	}

	a := fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}}
	b := fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "8s"}}}
	distinct := []Spec{
		sweepSpec(a),
		sweepSpec(b),
		sweepSpec(a, b),
		sweepSpec(b, a), // scheme order is part of the computation's identity
		sweepSpec(fleet.SchemeSpec{Label: "renamed", Policy: a.Policy}),
		sweepSpec(fleet.SchemeSpec{Policy: a.Policy, Active: &policy.Spec{Name: "learn"}}),
		sweepSpec(fleet.SchemeSpec{Policy: a.Policy,
			Active: &policy.Spec{Name: "learn", Params: map[string]any{"gamma": 0.01}}}),
	}
	for i, s := range distinct {
		fp := mustFingerprint(t, s)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("spec %d collided with %s", i, prev)
		}
		seen[fp] = "distinct"
	}
}

// TestLegacyNameAliasFingerprints: every legacy policy name, spelled as a
// scheme spec under the same label, fingerprints identically to its
// explicit canonical spec form — registry aliases are data, so the old
// names stay interchangeable with what they denote.
func TestLegacyNameAliasFingerprints(t *testing.T) {
	cases := []struct {
		pol, act string
		scheme   fleet.SchemeSpec
	}{
		{"statusquo", "", fleet.SchemeSpec{Label: "statusquo", Policy: policy.Spec{Name: "statusquo"}}},
		{"4.5s", "", fleet.SchemeSpec{Label: "4.5s",
			Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "4.5s"}}}},
		{"95iat", "", fleet.SchemeSpec{Label: "95iat",
			Policy: policy.Spec{Name: "pctiat", Params: map[string]any{"q": 0.95}}}},
		{"oracle", "", fleet.SchemeSpec{Label: "oracle", Policy: policy.Spec{Name: "oracle"}}},
		{"makeidle", "", fleet.SchemeSpec{Label: "makeidle", Policy: policy.Spec{Name: "makeidle"}}},
		{"makeidle", "learn", fleet.SchemeSpec{Label: "makeidle+learn",
			Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: "learn"}}},
		{"makeidle", "fix", fleet.SchemeSpec{Label: "makeidle+fix",
			Policy: policy.Spec{Name: "makeidle"},
			Active: &policy.Spec{Name: "fix", Params: map[string]any{"burstgap": "1s"}}}},
	}
	for _, c := range cases {
		var active *policy.Spec
		if c.act != "" {
			active = &policy.Spec{Name: c.act}
		}
		alias := sweepSpec(fleet.SchemeSpec{Label: c.scheme.Label, Policy: policy.Spec{Name: c.pol}, Active: active})
		if mustFingerprint(t, alias) != mustFingerprint(t, sweepSpec(c.scheme)) {
			t.Errorf("legacy %s/%s does not fingerprint like its spec form", c.pol, c.act)
		}
	}
}

// TestBurstGapSeedsFixScheme: the job-level burst gap reaches a "fix"
// active spec that does not pin its own — it fingerprints (and therefore
// computes) exactly like the spec pinning that gap — while an explicit
// burstgap param wins.
func TestBurstGapSeedsFixScheme(t *testing.T) {
	speced := withBurstGap(withScheme(defaultSpec(5, 3, "30m"), "makeidle+fix",
		policy.Spec{Name: "makeidle"}, &policy.Spec{Name: "fix"}), 2*time.Second)
	explicit := withScheme(speced, "makeidle+fix", policy.Spec{Name: "makeidle"},
		&policy.Spec{Name: "fix", Params: map[string]any{"burstgap": "2s"}})
	if mustFingerprint(t, explicit) != mustFingerprint(t, speced) {
		t.Fatal("schemes form ignores the job burst gap")
	}
	rs, err := fleet.ResolveScheme(registry(), speced.withDefaults().Schemes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs.Canonical, "fix(burstgap=2s)") {
		t.Fatalf("canonical %q does not carry the injected burst gap", rs.Canonical)
	}
	pinned := speced
	pinned.Schemes = []fleet.SchemeSpec{{Label: "makeidle+fix",
		Policy: policy.Spec{Name: "makeidle"},
		Active: &policy.Spec{Name: "fix", Params: map[string]any{"burstgap": "500ms"}}}}
	if mustFingerprint(t, pinned) == mustFingerprint(t, speced) {
		t.Fatal("explicit burstgap param did not override the job burst gap")
	}
	if pinned.Schemes[0].Active.Params["burstgap"] != "500ms" {
		t.Fatal("normalization mutated the caller's scheme spec")
	}
}

// TestFingerprintV4StableAcrossAxisSpellings: the v4 fingerprint hashes
// canonical encodings on all three axes, so every way of writing the same
// grid — display-name vs canonical profile names, omitted vs explicit
// defaults on any axis, any param-map construction order — produces one
// fingerprint.
func TestFingerprintV4StableAcrossAxisSpellings(t *testing.T) {
	base := Spec{Seed: 3, Shards: 8,
		Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "makeidle"}}},
		Profiles: []power.ProfileSpec{{Name: "verizon-lte"}},
		Cohorts:  []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 5, "duration": "30m"}}},
	}
	want := mustFingerprint(t, base)
	equivalents := []Spec{
		// Explicit profile defaults.
		func() Spec {
			s := base
			s.Profiles = []power.ProfileSpec{{Name: "verizon-lte", Params: map[string]any{"t1": "10.2s"}}}
			return s
		}(),
		// Cohort value spellings and explicit defaults.
		func() Spec {
			s := base
			s.Cohorts = []fleet.CohortSpec{{Name: "study-3g",
				Params: map[string]any{"users": "5", "duration": "30m0s", "diurnal": true}}}
			return s
		}(),
	}
	for i, s := range equivalents {
		if got := mustFingerprint(t, s); got != want {
			t.Errorf("equivalent grid %d changed the fingerprint", i)
		}
	}
	// Param-map construction order cannot matter on the new axes either.
	mk := func() Spec {
		s := base
		s.Profiles = []power.ProfileSpec{{Name: "verizon-lte",
			Params: map[string]any{"t1": "9s", "dormancy": 0.4, "uplink": 2.0}}}
		return s
	}
	ref := mustFingerprint(t, mk())
	for trial := 0; trial < 20; trial++ {
		if mustFingerprint(t, mk()) != ref {
			t.Fatal("fingerprint depends on profile param map ordering")
		}
	}
	// A display-name profile and its canonical name agree under one label.
	display := withProfile(defaultSpec(5, 3, "30m"), "Verizon LTE")
	canonical := display
	canonical.Profiles = []power.ProfileSpec{{Label: "Verizon LTE", Name: "verizon-lte"}}
	if mustFingerprint(t, display) != mustFingerprint(t, canonical) {
		t.Fatal("display-name profile does not fingerprint like its canonical name")
	}
}

// TestFingerprintV4MovesWithAnyAxisChange: changing any single profile or
// cohort knob, an axis label, an axis list, or its order changes the
// fingerprint.
func TestFingerprintV4MovesWithAnyAxisChange(t *testing.T) {
	base := Spec{Seed: 3, Shards: 8,
		Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "makeidle"}}},
		Profiles: []power.ProfileSpec{{Name: "verizon-lte"}},
		Cohorts:  []fleet.CohortSpec{{Name: "study-3g", Params: map[string]any{"users": 5}}},
	}
	seen := map[string]string{mustFingerprint(t, base): "base"}
	check := func(name string, s Spec) {
		t.Helper()
		fp := mustFingerprint(t, s)
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collided with %s", name, prev)
		}
		seen[fp] = name
	}
	withProfiles := func(ps ...power.ProfileSpec) Spec { s := base; s.Profiles = ps; return s }
	withCohorts := func(cs ...fleet.CohortSpec) Spec { s := base; s.Cohorts = cs; return s }

	// Every profile knob moves the key.
	for _, knob := range []map[string]any{
		{"t1": "5s"}, {"t1power": 1200.0}, {"send": 3000.0}, {"recv": 1800.0},
		{"promodelay": "1s"}, {"promopower": 1000.0}, {"radiooff": 2.0},
		{"dormancy": 0.4}, {"uplink": 4.0}, {"downlink": 10.0},
	} {
		check(fmt.Sprintf("profile knob %v", knob),
			withProfiles(power.ProfileSpec{Name: "verizon-lte", Params: knob}))
	}
	// Every cohort knob moves the key.
	for _, knob := range []map[string]any{
		{"users": 6}, {"users": 5, "duration": "1h"}, {"users": 5, "diurnal": false},
		{"users": 5, "seedstride": 7},
	} {
		check(fmt.Sprintf("cohort knob %v", knob),
			withCohorts(fleet.CohortSpec{Name: "study-3g", Params: knob}))
	}
	// Different families, labels, list sizes and orders are all distinct.
	v3g := power.ProfileSpec{Name: "verizon-3g"}
	vlte := power.ProfileSpec{Name: "verizon-lte"}
	check("different family", withCohorts(fleet.CohortSpec{Name: "study-lte", Params: map[string]any{"users": 5}}))
	check("relabeled profile", withProfiles(power.ProfileSpec{Label: "renamed", Name: "verizon-lte"}))
	check("relabeled cohort", withCohorts(fleet.CohortSpec{Label: "renamed", Name: "study-3g", Params: map[string]any{"users": 5}}))
	check("two profiles", withProfiles(vlte, v3g))
	check("two profiles, other order", withProfiles(v3g, vlte))
	// A spec Submit would reject has no fingerprint, only Submit's error.
	m := NewManager(Config{})
	defer m.Close()
	unknown := withProfiles(power.ProfileSpec{Name: "AT&T 3G"})
	_, want := m.Submit(unknown)
	if fp, err := unknown.Fingerprint(); err == nil || want == nil || err.Error() != want.Error() || fp != "" {
		t.Errorf("unknown profile: Fingerprint %q, %v; Submit error %v", fp, err, want)
	}
}

// admit runs a spec through Submit's admission: normalization, then one
// resolution of every axis value.
func admit(s Spec) error {
	_, err := s.Fingerprint()
	return err
}

// TestSpecValidateAxes: grid-specific admission rules on the profile and
// cohort axes.
func TestSpecValidateAxes(t *testing.T) {
	good := Spec{Seed: 1,
		Schemes:  []fleet.SchemeSpec{{Policy: policy.Spec{Name: "makeidle"}}},
		Profiles: []power.ProfileSpec{{Name: "verizon-3g"}, {Name: "verizon-lte", Params: map[string]any{"t1": "5s"}}},
		Cohorts: []fleet.CohortSpec{
			{Name: "study-3g", Params: map[string]any{"users": 2, "duration": "10m"}},
			{Name: "mix", Params: map[string]any{"users": 2, "duration": "10m"}},
		},
	}
	if err := admit(good); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	// Sub-minute durations predate the cohort schema and must keep
	// validating, so specs stored back then stay runnable.
	if err := admit(defaultSpec(2, 1, "30s")); err != nil {
		t.Fatalf("sub-minute duration rejected: %v", err)
	}
	mutate := func(f func(*Spec)) Spec {
		s := good
		f(&s)
		return s
	}
	bad := map[string]Spec{
		"unknown profile": mutate(func(s *Spec) {
			s.Profiles = []power.ProfileSpec{{Name: "warp-radio"}}
		}),
		"out-of-range profile knob": mutate(func(s *Spec) {
			s.Profiles = []power.ProfileSpec{{Name: "verizon-3g", Params: map[string]any{"dormancy": 2.0}}}
		}),
		"duplicate profile labels": mutate(func(s *Spec) {
			s.Profiles = []power.ProfileSpec{{Name: "verizon-3g"}, {Name: "Verizon 3G", Label: "verizon-3g"}}
		}),
		"reserved profile label": mutate(func(s *Spec) {
			s.Profiles = []power.ProfileSpec{{Label: "a|b", Name: "verizon-3g"}}
		}),
		"unknown cohort": mutate(func(s *Spec) {
			s.Cohorts = []fleet.CohortSpec{{Name: "commuters"}}
		}),
		"degenerate mix cohort": mutate(func(s *Spec) {
			s.Cohorts = []fleet.CohortSpec{{Name: "mix", Params: map[string]any{"im": 0, "email": 0, "news": 0}}}
		}),
		"too many profiles": mutate(func(s *Spec) {
			for i := 0; i <= MaxProfiles; i++ {
				s.Profiles = append(s.Profiles, power.ProfileSpec{
					Label: fmt.Sprintf("p%d", i), Name: "verizon-3g"})
			}
		}),
		// 40 schemes × 8 profiles × 2 cohorts = 640 cells: every axis within
		// its own limit, the product over MaxCells.
		"too many cells": mutate(func(s *Spec) {
			for i := 0; len(s.Profiles) < 8; i++ {
				s.Profiles = append(s.Profiles, power.ProfileSpec{
					Label: fmt.Sprintf("p%d", i), Name: "verizon-3g"})
			}
			for i := 0; len(s.Schemes) < 40; i++ {
				s.Schemes = append(s.Schemes, fleet.SchemeSpec{
					Label: fmt.Sprintf("s%d", i), Policy: policy.Spec{Name: "makeidle"}})
			}
		}),
	}
	for name, s := range bad {
		if err := admit(s); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestSpecValidateSchemes: sweep-specific admission rules.
func TestSpecValidateSchemes(t *testing.T) {
	good := sweepSpec(
		fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "2s"}}},
		fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "8s"}}},
	)
	if err := admit(good); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	bad := []Spec{
		sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "warpdrive"}}),
		sweepSpec(fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "20m"}}}),
		sweepSpec( // duplicate labels: both resolve to "fixedtail"
			fleet.SchemeSpec{Policy: policy.Spec{Name: "fixedtail"}},
			fleet.SchemeSpec{Policy: policy.Spec{Name: "4.5s"}}),
		sweepSpec(fleet.SchemeSpec{Label: "a|b", Policy: policy.Spec{Name: "makeidle"}}),
		func() Spec {
			s := sweepSpec()
			for i := 0; i <= MaxSchemes; i++ {
				s.Schemes = append(s.Schemes, fleet.SchemeSpec{
					Label:  time.Duration(i).String(),
					Policy: policy.Spec{Name: "makeidle"},
				})
			}
			return s
		}(),
	}
	for i, s := range bad {
		if err := admit(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
