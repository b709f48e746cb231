package jobs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/power"
)

// axisCache memoizes successful grid-axis resolutions across Submits.
// Registries are append-only — Register and Alias both reject re-binding an
// existing name — so a name's resolution can never change for the life of
// the process and cached bundles stay valid indefinitely. Entries are keyed
// by the request's exact spelling (label, names, raw parameter types and
// values), so differently-spelled equivalents ("4500ms" vs "4.5s") miss and
// resolve fresh rather than risk a false hit. Failed resolutions are never
// cached: a name unknown today may be registered tomorrow.
//
// Keys length-prefix every string and mark which optional parts are
// present, so distinct requests never share a key: a hit always returns
// the resolution of exactly the spelling submitted, and admission cannot
// depend on what earlier Submits warmed.
//
// Cached bundles are shared across jobs. Everything they carry — profile
// values, cohort mixes, prepared source constructors, policy factories —
// is read-only after resolution, so sharing is race-free. The cohort key
// folds in the seed and burst gap because ResolveCohort bakes both into
// the bundle (the burst gap is the only sim option the planner sets, so
// equal gaps mean interchangeable Opts).
type axisCache struct {
	schemes  *axisMemo[fleet.SchemeSpec, fleet.ResolvedScheme]
	profiles *axisMemo[power.ProfileSpec, power.ResolvedProfile]
	cohorts  *axisMemo[fleet.CohortSpec, fleet.ResolvedCohort]
}

// axisCacheMax bounds each axis map. Overflow clears the map wholesale:
// sweep traffic cycles a small axis vocabulary, so a reset beats LRU
// bookkeeping, and a full rebuild costs one resolution per distinct value.
const axisCacheMax = 4096

func newAxisCache() axisCache {
	return axisCache{
		schemes:  &axisMemo[fleet.SchemeSpec, fleet.ResolvedScheme]{},
		profiles: &axisMemo[power.ProfileSpec, power.ResolvedProfile]{},
		cohorts:  &axisMemo[fleet.CohortSpec, fleet.ResolvedCohort]{},
	}
}

// axisMemo is one axis's map from spec T to its successful resolution V.
// A nil memo never hits and never stores, so the zero axisCache plans
// uncached.
type axisMemo[T, V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// resolve returns the memoized resolution of spec under key(spec), or runs
// resolve and memoizes its result if it succeeds. key is only called on a
// non-nil memo, and resolve runs outside the lock.
func (c *axisMemo[T, V]) resolve(spec T, key func(T) string, resolve func(T) (V, error)) (V, error) {
	if c == nil {
		return resolve(spec)
	}
	k := key(spec)
	c.mu.Lock()
	v, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := resolve(spec)
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || len(c.m) >= axisCacheMax {
		c.m = make(map[string]V)
	}
	c.m[k] = v
	return v, nil
}

// appendField appends a length-prefixed string, so no bytes inside one
// field can be read as a boundary between fields.
func appendField[S ~string | ~[]byte](b []byte, s S) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

// appendSpecKey appends an injective encoding of one name+params spec: the
// name, the parameter count, then the parameters sorted by key, each as
// name, dynamic type and value ("%T"/"%v"). The type tag keeps int 4 and
// string "4" distinct, so a spelling that would fail coercion can never
// collide with one that resolved.
func appendSpecKey(b []byte, name string, params map[string]any) []byte {
	b = appendField(b, name)
	b = strconv.AppendInt(b, int64(len(params)), 10)
	b = append(b, ':')
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var scratch [64]byte
	for _, k := range keys {
		b = appendField(b, k)
		b = appendField(b, fmt.Appendf(scratch[:0], "%T", params[k]))
		b = appendField(b, fmt.Appendf(scratch[:0], "%v", params[k]))
	}
	return b
}

func schemeKey(ss fleet.SchemeSpec) string {
	b := make([]byte, 0, 96)
	b = appendField(b, ss.Label)
	b = appendSpecKey(b, ss.Policy.Name, ss.Policy.Params)
	if ss.Active == nil {
		return string(append(b, '-'))
	}
	b = append(b, '+')
	return string(appendSpecKey(b, ss.Active.Name, ss.Active.Params))
}

func profileKey(ps power.ProfileSpec) string {
	b := make([]byte, 0, 96)
	b = appendField(b, ps.Label)
	return string(appendSpecKey(b, ps.Name, ps.Params))
}

func cohortKey(cs fleet.CohortSpec, seed int64, burstGap time.Duration) string {
	b := make([]byte, 0, 96)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(burstGap), 10)
	b = append(b, ':')
	b = appendField(b, cs.Label)
	return string(appendSpecKey(b, cs.Name, cs.Params))
}
