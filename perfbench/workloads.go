package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/policy"
	"repro/internal/power"
)

// The three workloads. Each is a seeded generator of job specs (the
// daemon sees only the generated specs, never the seed) plus the way the
// client drives them. Why each exists, and which layer it stresses or
// bypasses, is recorded in BENCHMARK.json; the comments below say how.

// jobReq is one generated job: the spec POSTed to /v1/jobs, the result
// format fetched, and its size in cells and simulated user-hours.
type jobReq struct {
	spec      jobs.Spec
	format    string // "json" or "csv"
	cells     int
	userHours float64
}

// benchWorkload describes one benchmark workload.
type benchWorkload struct {
	name string
	// open selects an open loop (seeded arrivals at rate, up to conns
	// client connections); otherwise one client runs a closed loop.
	open  bool
	rate  float64 // offered jobs per second (open loop)
	conns int     // client connections (open loop)
	// store runs the daemon with a durable cell store that setup fills
	// with the popular cells and then reopens.
	store bool
	// slo is the per-job latency limit behind slo_attainment.
	slo time.Duration
	// oracleSample is how many timed jobs a measured run checks against
	// the sequential reference; 0 checks every distinct spec.
	oracleSample int
	// tracedJobs is the fixed number of jobs the traced run sends one at
	// a time, so its counts repeat exactly for a seed; layerJobs is how
	// many of those (seeded sample, 0 = all) the layer pass re-executes.
	tracedJobs, layerJobs int
	// newGen returns the workload's job sequence for a seed.
	newGen func(seed int64) *specGen
}

// specGen yields a workload's deterministic job sequence.
type specGen struct {
	next func() jobReq
	// fill lists the jobs setup runs to populate the store (service-mix).
	fill []jobReq
}

// The paper's five schemes (§6 / Fig. 17-18) and four carriers (Table 2).
var (
	paperSchemes = []fleet.SchemeSpec{
		{Policy: policy.Spec{Name: "statusquo"}},
		{Policy: policy.Spec{Name: "4.5s"}},
		{Policy: policy.Spec{Name: "95iat"}},
		{Policy: policy.Spec{Name: "makeidle"}},
		{Policy: policy.Spec{Name: "makeidle"}, Active: &policy.Spec{Name: "learn"}},
	}
	paperCarriers = []string{"verizon-3g", "verizon-lte", "tmobile-3g", "att-hspa+"}
	mixCohorts    = []string{"study-3g", "study-lte"}
)

// A measured run sets up at least setupRuns times and until set-up has
// taken setupMin in all; setup_s is the median. A set-up of a few
// milliseconds is repeated often enough that its median holds still.
const (
	setupRuns = 5
	setupMin  = 2 * time.Second
)

// closedRSSJobs is, on a closed loop, after how many timed jobs the peak
// resident set stops being sampled, so that the daemon's retained job
// records weigh the same however fast jobs run. Eight paper-grid jobs
// take 7-9 s of a 30 s window at the measured 0.8-1.15 s per job. An
// open loop sends a fixed number of jobs and samples its whole window.
const closedRSSJobs = 8

// Cohort sizes per workload.
const (
	paperUsers    = 64
	paperDuration = 4 * time.Hour
	mixUsers      = 2
	mixDuration   = time.Hour
)

// service-mix's traffic and the latency limits. Each value has a stated
// basis: the daemon's configuration, the workload's first prototype, a
// published measurement, or a measurement of this benchmark before any
// optimisation (2-vCPU Xeon, go1.24.0).
const (
	// mixPopularSeeds × 5 schemes × 4 carriers × 2 cohorts is the popular
	// cell set: 1280 cells, the smallest power-of-two seed count whose set
	// exceeds the daemon's 1024-entry cell cache, so store reads continue
	// through the run.
	mixPopularSeeds = 32
	// mixCatalog popular specs is four times the daemon's 128-entry result
	// cache, so the catalog's tail misses the result cache and reaches the
	// cell cache and the store.
	mixCatalog = 4 * 128
	// mixZipf is the exponent of the catalog's popularity: within the
	// 0.64-0.83 that Breslau et al. (INFOCOM 1999) measured for the
	// request streams of six web proxies.
	mixZipf = 0.8
	// mixFreshPer10 of every ten jobs carry a fresh seed (cold cells and
	// store writes): the share in this workload's first prototype.
	mixFreshPer10 = 3
	// mixRate is a twelfth of the closed-loop capacity measured with
	// mixConns clients (566-624 jobs/s over three seeds). At a quarter of
	// it, a host stall of a few seconds built a backlog that moved the
	// p50 by up to 2.3x and marked one run in ten invalid; at a twelfth,
	// latency measures service rather than queueing.
	mixRate  = 50
	mixConns = 2 // the host's nproc
	// mixSLO is the p99 latency measured at mixRate, median 11.8 ms over
	// five seeds (9.5-14.4 ms), rounded to a whole millisecond: p99 is
	// the highest percentile with at least ten of a run's 1500 jobs
	// beyond it. slo_attainment sits near 0.99 and falls when the tail
	// grows; with a limit at p95, the host's drifting speed alone spread
	// attainment over 11% of its median within a set of runs.
	mixSLO = 12 * time.Millisecond
	// paperSLO is about twice paper-grid's measured p50 (0.8-1.15 s
	// across sets of runs hours apart): attainment stays 1 unless jobs
	// get about twice as slow.
	paperSLO = 2200 * time.Millisecond
)

var workloads = []*benchWorkload{
	{
		// Fig. 17/18: every scheme on every carrier for one cohort. Each
		// job has a fresh seed, so the result and cell caches miss while
		// the trace cache generates each user once and replays it in all
		// 20 cells; MakeIdle's per-packet decision dominates.
		name: "paper-grid", slo: paperSLO,
		oracleSample: 1, tracedJobs: 3, layerJobs: 1,
		newGen: func(seed int64) *specGen {
			rng := rand.New(rand.NewSource(seed))
			return &specGen{next: func() jobReq {
				return gridJob(rng.Int63n(1<<40), paperSchemes, paperCarriers,
					cohortSpec("study-3g", paperUsers, paperDuration), "json")
			}}
		},
	},
	{
		// Many users of one daemon with a durable store: small grids,
		// mostly popular (cache and store hits), some fresh (cold cells
		// and store writes), results fetched as JSON and CSV in turn.
		name: "service-mix", slo: mixSLO,
		open: true, rate: mixRate, conns: mixConns, store: true,
		oracleSample: 0, tracedJobs: 240, layerJobs: 0,
		newGen: newMixGen,
	},
}

func workloadByName(name string) (*benchWorkload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func cohortSpec(name string, users int, d time.Duration) fleet.CohortSpec {
	return fleet.CohortSpec{Name: name, Params: map[string]any{
		"users": users, "duration": d.String(),
	}}
}

// gridJob builds one schemes × carriers × cohort job.
func gridJob(seed int64, schemes []fleet.SchemeSpec, carriers []string, cohort fleet.CohortSpec, format string) jobReq {
	profiles := make([]power.ProfileSpec, len(carriers))
	for i, c := range carriers {
		profiles[i] = power.ProfileSpec{Name: c}
	}
	users := cohort.Params["users"].(int)
	d, err := time.ParseDuration(cohort.Params["duration"].(string))
	if err != nil {
		panic(err) // durations come from the constants above
	}
	cells := len(schemes) * len(carriers)
	return jobReq{
		spec: jobs.Spec{
			Seed:     seed,
			Schemes:  append([]fleet.SchemeSpec(nil), schemes...),
			Profiles: profiles,
			Cohorts:  []fleet.CohortSpec{cohort},
		},
		format:    format,
		cells:     cells,
		userHours: float64(cells*users) * d.Hours(),
	}
}

// pick returns k distinct elements of xs, kept in xs order so equal
// choices always spell the same spec.
func pick[T any](rng *rand.Rand, xs []T, k int) []T {
	idx := rng.Perm(len(xs))[:k]
	sort.Ints(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// mixJob draws a small grid on one small cohort: 1 + shape%3 schemes and
// 1 + shape/3%2 carriers, so consecutive shapes cover all six grid sizes.
func mixJob(rng *rand.Rand, seed int64, shape int) jobReq {
	schemes := pick(rng, paperSchemes, 1+shape%3)
	carriers := pick(rng, paperCarriers, 1+shape/3%2)
	cohort := mixCohorts[rng.Intn(len(mixCohorts))]
	return gridJob(seed, schemes, carriers, cohortSpec(cohort, mixUsers, mixDuration), "json")
}

// newMixGen builds service-mix: popular seeds with a Zipf-drawn catalog
// of popular specs, a share of fresh-seed specs, and the store fill that
// covers every popular cell.
func newMixGen(seed int64) *specGen {
	rng := rand.New(rand.NewSource(seed))
	popular := make([]int64, mixPopularSeeds)
	for i := range popular {
		popular[i] = rng.Int63n(1 << 40)
	}
	var fill []jobReq
	for _, s := range popular {
		for _, c := range mixCohorts {
			fill = append(fill, gridJob(s, paperSchemes, paperCarriers,
				cohortSpec(c, mixUsers, mixDuration), "json"))
		}
	}
	// Catalog rank i has shape i%6, so however the Zipf head falls, the
	// popular jobs' mean size does not depend on the seed.
	catalog := make([]jobReq, mixCatalog)
	for i := range catalog {
		catalog[i] = mixJob(rng, popular[rng.Intn(len(popular))], i%6)
	}
	rank := zipfRanks(mixZipf, mixCatalog)
	n := 0
	return &specGen{fill: fill, next: func() jobReq {
		var j jobReq
		// Fresh jobs take evenly spaced slots (n = 3, 6, 9 mod 10), so
		// every run sends the same number of them.
		if (n+1)*mixFreshPer10/10 > n*mixFreshPer10/10 {
			j = mixJob(rng, rng.Int63n(1<<40), rng.Intn(6))
		} else {
			j = catalog[rank(rng)]
		}
		if n%2 == 1 {
			j.format = "csv"
		}
		n++
		return j
	}}
}

// zipfRanks returns a sampler of ranks 0..n-1 with P(k) proportional to
// (k+1)^-s, by inverting the cumulative distribution. Unlike
// rand.NewZipf it accepts s <= 1.
func zipfRanks(s float64, n int) func(*rand.Rand) int {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	return func(rng *rand.Rand) int {
		return min(sort.SearchFloat64s(cdf, rng.Float64()*sum), n-1)
	}
}

// arrivals returns n seeded arrival offsets of a Poisson process at rate
// per second, conditioned on exactly n arrivals in [0, n/rate): sorted
// uniform draws. Fixing the count keeps jobs_per_s from carrying the
// count's own sampling noise.
func arrivals(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	span := float64(n) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * span * float64(time.Second))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
