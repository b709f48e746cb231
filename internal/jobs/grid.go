package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/power"
	"repro/internal/sim"
)

// This file expands a normalized Spec into its grid of cells — the cross
// product of the scheme × profile × cohort axes — and gives each cell a
// deterministic identity for the cell-level result cache.
//
// Cells execute cohort-major, then profile, then scheme: a fixed order,
// so progress accounting and rendered output are reproducible. Every cell
// is one independent fleet run over the cell's cohort, which keeps each
// cell's reduction grouping exactly what a single-axis job with the same
// shard count would use — the invariant that makes a grid cell's summary
// byte-identical to the equivalent single job's.

// gridCell is one planned cell: its axis labels, the resolved cohort /
// profile / scheme that realize it, the cell cache key, and its progress
// denominators. The fleet job slice is NOT built here — a grid holds
// every planned cell for the job's lifetime, so cells materialize their
// O(users) job slices lazily (Jobs), one at a time as they run, and
// cache-served cells never build one at all.
type gridCell struct {
	// Scheme, Profile, Cohort are the axis labels keying the cell in
	// results.
	Scheme, Profile, Cohort string
	// Key is the deterministic cell identity: equal keys imply
	// byte-identical cell summaries (same reasoning as the job
	// fingerprint, restricted to one cell).
	Key string

	cohort  fleet.Cohort
	profile power.Profile
	scheme  fleet.Scheme

	// NumJobs and Shards are the cell's progress denominators: the fleet
	// run's job count (one per user — each cell is a single scheme) and
	// the shard count it will use under the job's options (the configured
	// count clamped to the job count).
	NumJobs, Shards int
}

// Jobs materializes the cell's fleet run.
func (c *gridCell) Jobs() []fleet.Job {
	return c.cohort.Jobs(c.profile, []fleet.Scheme{c.scheme})
}

// planFingerprint validates the normalized spec's axes, computes its v4
// fingerprint, and expands its grid cells — all from ONE registry
// resolution per axis value. This is the only validation and the only
// fingerprint: Submit and Fingerprint both call it. Every axis value
// resolves eagerly (typos and out-of-range parameters fail at admission,
// before a fleet spins up) and labels must be distinct within their axis
// and free of reserved characters, because they key grid cells. Axis
// errors are reported in order: schemes, then profiles, then cohorts.
//
// axes memoizes successful resolutions across Submits (see axisCache);
// the zero axisCache resolves everything fresh.
func (s Spec) planFingerprint(opts fleet.Options, axes axisCache) ([]gridCell, string, error) {
	if err := s.checkBounds(); err != nil {
		return nil, "", err
	}
	burstGap := time.Duration(s.BurstGap)

	sas, err := resolveAxis("scheme", s.Schemes, axes.schemes, schemeKey,
		func(ss fleet.SchemeSpec) (fleet.ResolvedScheme, error) {
			return fleet.ResolveScheme(registry(), ss)
		},
		func(rs fleet.ResolvedScheme) string { return rs.Label })
	if err != nil {
		return nil, "", err
	}
	pas, err := resolveAxis("profile", s.Profiles, axes.profiles, profileKey,
		func(ps power.ProfileSpec) (power.ResolvedProfile, error) {
			return ps.Resolution(profiles())
		},
		func(rp power.ResolvedProfile) string { return rp.Label })
	if err != nil {
		return nil, "", err
	}
	// Every cohort of the job shares one sim.Options; ResolveCohort stamps
	// CacheKeyBase with the cohort canonical, so every cell of a cohort
	// replays the same memoized traffic.
	simOpts := &sim.Options{BurstGap: burstGap}
	cas, err := resolveAxis("cohort", s.Cohorts, axes.cohorts,
		func(cs fleet.CohortSpec) string { return cohortKey(cs, s.Seed, burstGap) },
		func(cs fleet.CohortSpec) (fleet.ResolvedCohort, error) {
			return fleet.ResolveCohort(cohorts(), cs, s.Seed, simOpts)
		},
		func(rc fleet.ResolvedCohort) string { return rc.Label })
	if err != nil {
		return nil, "", err
	}

	// Both digests hash hand-appended bytes: strconv for the scalars,
	// Duration.String for the gap.
	scalars := make([]byte, 0, 64)
	scalars = append(scalars, "seed="...)
	scalars = strconv.AppendInt(scalars, s.Seed, 10)
	scalars = append(scalars, "|burstgap="...)
	scalars = append(scalars, burstGap.String()...)
	scalars = append(scalars, "|shards="...)
	scalars = strconv.AppendInt(scalars, int64(s.Shards), 10)

	b := make([]byte, 0, 512)
	b = append(b, "v4|"...)
	b = append(b, scalars...)
	b = append(b, "|schemes="...)
	b = strconv.AppendInt(b, int64(len(s.Schemes)), 10)
	b = append(b, "|profiles="...)
	b = strconv.AppendInt(b, int64(len(s.Profiles)), 10)
	b = append(b, "|cohorts="...)
	b = strconv.AppendInt(b, int64(len(s.Cohorts)), 10)
	for _, sa := range sas {
		b = append(b, "|S:"...)
		b = append(b, sa.Canonical...)
	}
	for _, pa := range pas {
		b = append(b, "|P:"...)
		b = append(b, pa.Canonical...)
	}
	for _, ca := range cas {
		b = append(b, "|C:"...)
		b = append(b, ca.Canonical...)
	}
	sum := sha256.Sum256(b)
	fp := hex.EncodeToString(sum[:])

	cells := make([]gridCell, 0, len(s.Schemes)*len(s.Profiles)*len(s.Cohorts))
	for _, ca := range cas {
		for _, pa := range pas {
			for _, sa := range sas {
				cells = append(cells, gridCell{
					Scheme:  sa.Scheme.Name,
					Profile: pa.Profile.Name,
					Cohort:  ca.Label,
					Key:     cellKey(scalars, sa.Canonical, pa.Canonical, ca.Canonical),
					cohort:  ca.Cohort,
					profile: pa.Profile,
					scheme:  sa.Scheme,
					NumJobs: ca.Cohort.Users,
					Shards:  opts.NumShards(ca.Cohort.Users),
				})
			}
		}
	}
	return cells, fp, nil
}

// resolveAxis resolves every value of one axis, through memo, and checks
// each resolved label against the axis-label rules in order.
func resolveAxis[T, V any](axis string, values []T, memo *axisMemo[T, V],
	key func(T) string, resolve func(T) (V, error), label func(V) string) ([]V, error) {
	out := make([]V, len(values))
	seen := make(map[string]bool, len(values))
	for i, v := range values {
		r, err := memo.resolve(v, key, resolve)
		if err != nil {
			return nil, fmt.Errorf("jobs: %s %d: %w", axis, i, err)
		}
		if err := checkLabel(axis, i, label(r), seen); err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// checkLabel enforces the axis-label rules (no reserved characters, no
// duplicates within an axis — labels key grid cells).
func checkLabel(axis string, i int, label string, seen map[string]bool) error {
	if strings.ContainsAny(label, "|\n") {
		return fmt.Errorf("jobs: %s %d: label %q contains reserved characters", axis, i, label)
	}
	if seen[label] {
		return fmt.Errorf("jobs: %s %d: duplicate label %q (label axis values explicitly)", axis, i, label)
	}
	seen[label] = true
	return nil
}

// singleAxis reports whether the normalized spec's profile and cohort axes
// are both single-valued — the shape whose job-level result renders flat
// (one merged summary keyed by scheme label). Wider
// grids render per cell, because the same scheme label legitimately
// repeats across profile/cohort cells.
func (s Spec) singleAxis() bool {
	return len(s.Profiles) == 1 && len(s.Cohorts) == 1
}

// cellKey digests one cell's computation: the job-level scalars that
// shape every cell (scalars is the pre-rendered "seed=…|burstgap=…|
// shards=…" run, shared across the grid) plus the cell's three canonical
// axis encodings. Labels ride inside the canonicals, which is deliberate —
// a relabeled cell renders different bytes, so it must not share a cache
// entry.
func cellKey(scalars []byte, schemeCanon, profCanon, cohortCanon string) string {
	b := make([]byte, 0, 17+len(scalars)+len(schemeCanon)+len(profCanon)+len(cohortCanon))
	b = append(b, "cell|v4|"...)
	b = append(b, scalars...)
	b = append(b, "|S:"...)
	b = append(b, schemeCanon...)
	b = append(b, "|P:"...)
	b = append(b, profCanon...)
	b = append(b, "|C:"...)
	b = append(b, cohortCanon...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
