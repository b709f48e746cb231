package main

// The traced run. It sends a fixed number of the workload's jobs one at a
// time — service-mix too, whose measured run is an open loop — so spans
// never overlap and its counts repeat exactly for a seed. It records a
// span around every call the benchmark makes into a layer:
//
//   - service pass: the HTTP calls (server.*), a direct Manager.Submit
//     for every other job (jobs.submit; the rest are POSTed), the daemon's
//     queue wait and run read from Job.Status timestamps (jobs.*), and the
//     first Result.JSON/CSV render (report.render);
//   - layer pass: the cells the daemon executed (all of a seeded sample of
//     jobs) re-executed through the layers' public calls — the generator
//     drained (workload.gen), trace.EncodeStream (trace.encode),
//     trace.BytesSource drained per replay (trace.decode), fleet.Run with
//     one worker (sim.replay, whose self time is the engine's replay loop
//     plus the fleet's per-job dispatch),
//     a timing wrapper on the generic-path policies (policy.*) and on
//     fleet.SummaryAccumulator (fleet.fold, fleet.merge), and
//     report.SummaryStatsOf + report.JSON (report.render). Every
//     re-executed cell's fleet.EncodeSummary bytes must equal the daemon's;
//   - store pass (store workloads): store.Open over the run's own store
//     directory, store.Get of every cell the run served from a cache tier,
//     and store.Put of every executed cell's payload into a scratch store.
//
// The daemon's run interval (jobs.run) is the computation the layer and
// store passes re-execute; it is recorded but excluded from the traced
// wall time, so nothing is counted twice. Self times plus
// tracing.unattributed_s therefore add up to tracing.wall_s. The layer
// pass also runs once without spans or timing wrappers;
// tracing.overhead_frac is the traced layer pass's extra wall time over
// that run's.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one traced interval, or, for layers called per packet or per
// decision, the summed time of many calls under one parent (Calls > 0).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Job     string `json:"job,omitempty"`
	StartNs int64  `json:"start_ns,omitempty"`
	EndNs   int64  `json:"end_ns,omitempty"`
	DurNs   int64  `json:"dur_ns"`
	Calls   int64  `json:"calls,omitempty"`
	// Replayed marks the daemon's run interval, which the layer and store
	// passes re-execute; it is excluded from the traced wall time.
	Replayed bool `json:"replayed,omitempty"`
}

// tracer keeps spans in memory until the run ends. Time outside its
// phases (daemon shutdown between passes) is not traced time.
type tracer struct {
	t0     time.Time
	spans  []span
	phases time.Duration
	open   time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) beginPhase() { t.open = time.Now() }
func (t *tracer) endPhase()   { t.phases += time.Since(t.open) }

func (t *tracer) interval(name, job string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Job: job,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		DurNs: end.Sub(start).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) aggregate(name, job string, parent int, d time.Duration, calls int64) {
	if calls == 0 {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Job: job, DurNs: d.Nanoseconds(), Calls: calls})
}

// timed runs fn inside a span.
func (t *tracer) timed(name, job string, parent int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return t.interval(name, job, parent, start, time.Now()), err
}

// clock accumulates the per-call layers during one fleet.Run. The run has
// one worker, so one goroutine at a time touches it.
type clock struct {
	decide, observe, decode, fold, merge time.Duration
	decideCalls, observeCalls            int64
	decodeCalls, foldCalls, mergeCalls   int64
	packetsReplayed                      int64
}

// timedDemote wraps a demote policy that the engine already runs on its
// generic path, timing Decide and Observe.
type timedDemote struct {
	policy.DemotePolicy
	c *clock
}

func (p *timedDemote) Decide(now time.Duration) time.Duration {
	t := time.Now()
	w := p.DemotePolicy.Decide(now)
	p.c.decide += time.Since(t)
	p.c.decideCalls++
	return w
}

func (p *timedDemote) Observe(gap time.Duration) {
	t := time.Now()
	p.DemotePolicy.Observe(gap)
	p.c.observe += time.Since(t)
	p.c.observeCalls++
}

// timedActive times a batching policy's Delay (a decision) and
// ObserveEpisode.
type timedActive struct {
	policy.ActivePolicy
	c *clock
}

func (p *timedActive) Delay(now time.Duration) time.Duration {
	t := time.Now()
	d := p.ActivePolicy.Delay(now)
	p.c.decide += time.Since(t)
	p.c.decideCalls++
	return d
}

func (p *timedActive) ObserveEpisode(chosen time.Duration, arrivals []time.Duration) {
	t := time.Now()
	p.ActivePolicy.ObserveEpisode(chosen, arrivals)
	p.c.observe += time.Since(t)
	p.c.observeCalls++
}

// maxDelayer is the optional ActivePolicy method the engine reads its
// learning horizon from; a wrapper must keep it visible.
type maxDelayer interface{ MaxDelay() time.Duration }

type timedMaxDelayActive struct {
	*timedActive
	md maxDelayer
}

func (p timedMaxDelayActive) MaxDelay() time.Duration { return p.md.MaxDelay() }

// timeScheme wraps the scheme's policy factories. Policies the engine
// devirtualizes (constant waits) stay unwrapped so the engine keeps its
// fast path, and so do clairvoyant ones, whose lookahead feed a wrapper
// would hide. The policy reuse key gets a prefix naming the clock, so
// workers never hand a wrapped policy to an untraced run or to another
// clock.
func timeScheme(s fleet.Scheme, c *clock) fleet.Scheme {
	demote := s.Demote
	s.Demote = func(tr trace.Trace, prof power.Profile) (policy.DemotePolicy, error) {
		d, err := demote(tr, prof)
		if err != nil {
			return nil, err
		}
		switch d.(type) {
		case policy.StatusQuo, *policy.FixedTail, *policy.PercentileIAT, policy.GapLookahead:
			return d, nil
		}
		return &timedDemote{DemotePolicy: d, c: c}, nil
	}
	if active := s.Active; active != nil {
		s.Active = func(tr trace.Trace, prof power.Profile) (policy.ActivePolicy, error) {
			a, err := active(tr, prof)
			if err != nil || a == nil {
				return a, err
			}
			ta := &timedActive{ActivePolicy: a, c: c}
			if md, ok := a.(maxDelayer); ok {
				return timedMaxDelayActive{timedActive: ta, md: md}, nil
			}
			return ta, nil
		}
	}
	if s.PolicyKey != "" {
		s.PolicyKey = fmt.Sprintf("perfbench-timed-%p|%s", c, s.PolicyKey)
	}
	return s
}

// timedAccumulator wraps fleet.SummaryAccumulator's Fold and Merge.
func timedAccumulator(c *clock) fleet.Accumulator[*fleet.Summary] {
	acc := fleet.SummaryAccumulator(fleet.SummaryConfig{})
	fold, merge := acc.Fold, acc.Merge
	acc.Fold = func(s *fleet.Summary, out fleet.Outcome) *fleet.Summary {
		c.packetsReplayed += int64(out.Result.Packets)
		if out.Baseline != nil {
			c.packetsReplayed += int64(out.Baseline.Packets)
		}
		t := time.Now()
		s = fold(s, out)
		c.fold += time.Since(t)
		c.foldCalls++
		return s
	}
	acc.Merge = func(a, b *fleet.Summary) *fleet.Summary {
		t := time.Now()
		a = merge(a, b)
		c.merge += time.Since(t)
		c.mergeCalls++
		return a
	}
	return acc
}

// decodedSource is a replay's packet source in the layer pass: its first
// Next drains a trace.BytesSource over the user's slab into a buffer
// (timed as trace.decode), later calls serve the buffer. Timing each
// decoded packet separately would cost more than decoding it.
type decodedSource struct {
	c      *clock
	slab   []byte
	buf    *[]trace.Packet
	i      int
	loaded bool
}

func (s *decodedSource) Next() (trace.Packet, bool, error) {
	if !s.loaded {
		s.loaded = true
		t := time.Now()
		var bs trace.BytesSource
		if err := bs.Reset(s.slab); err != nil {
			return trace.Packet{}, false, err
		}
		buf, err := drain(&bs, (*s.buf)[:0])
		*s.buf = buf
		if err != nil {
			return trace.Packet{}, false, err
		}
		s.c.decode += time.Since(t)
		s.c.decodeCalls++
	}
	if s.i == len(*s.buf) {
		return trace.Packet{}, false, nil
	}
	p := (*s.buf)[s.i]
	s.i++
	return p, true, nil
}

// drain appends every packet of src to buf.
func drain(src trace.Source, buf []trace.Packet) ([]trace.Packet, error) {
	for {
		p, ok, err := src.Next()
		if err != nil || !ok {
			return buf, err
		}
		buf = append(buf, p)
	}
}

// tracedJob is one job of the service pass.
type tracedJob struct {
	req      jobReq
	id       string
	cacheHit bool
	res      *jobs.Result
	// executed and served index res.Cells: cells the daemon ran, and
	// cells it served from the cell cache or the store.
	executed, served []int
}

// traceRun is the traced run's outcome.
type traceRun struct {
	tr    *tracer
	clock clock // the traced layer pass's per-call layers
	jobs  []*tracedJob
	outs  []*outcome

	attempted, failed int
	mismatch          string

	packetsGenerated, slabBytes int64
	resultBytes                 int64
	non2xx                      int
	streamWake                  time.Duration // job finished in the daemon → stream EOF
	untracedLayer, tracedLayer  time.Duration

	traceStats      fleet.TraceCacheStats
	cellsExecuted   uint64
	cellsPlanned    int
	storeStats      store.Stats
	storeBytesCell  float64
	sendLagP99      time.Duration
	resultCacheHits int
}

// tracedRun sets up as a measured run does (once), then runs the service,
// layer and store passes with spans, then the untraced layer pass, then,
// for an open-loop workload, a short untimed open-loop segment that
// measures the load generator's send lag.
func tracedRun(w *benchWorkload, seed int64, scratch string) (*traceRun, error) {
	gen := w.newGen(seed)
	first := gen.next()
	storeDir, known, err := popularStore(w, gen, scratch)
	if err != nil {
		return nil, err
	}
	d, firstKeys, err := setupDaemon(w, storeDir, first)
	if err != nil {
		return nil, err
	}
	known = append(known, firstKeys...)
	closeD := func() error {
		if d == nil {
			return nil
		}
		err := d.close()
		d = nil
		return err
	}
	defer closeD()

	r := &traceRun{tr: newTracer()}
	if err := r.servicePass(d, w, gen, known); err != nil {
		return nil, err
	}
	if d.store != nil {
		r.storeBytesCell = float64(d.store.Stats().Bytes) / float64(d.store.Stats().Cells)
	}
	if err := closeD(); err != nil {
		return nil, err
	}
	sample := r.layerSample(w, seed)
	start := time.Now()
	if err := r.layerPass(sample, true); err != nil {
		return nil, err
	}
	r.tracedLayer = time.Since(start)
	if w.store {
		if err := r.storePass(storeDir, filepath.Join(scratch, "store-replay")); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	if err := r.layerPass(sample, false); err != nil {
		return nil, err
	}
	r.untracedLayer = time.Since(start)

	if _, err := checkOutcomes(w, seed, r.outs); err != nil {
		return nil, err
	}
	r.attempted = len(r.outs)
	for _, o := range r.outs {
		if !o.ok() {
			r.failed++
		}
	}
	if why := firstWrong(r.outs); why != "" && r.mismatch == "" {
		r.mismatch = why
	}
	if w.open {
		lag, err := loadgenLag(w, gen, seed, storeDir)
		if err != nil {
			return nil, err
		}
		r.sendLagP99 = lag
	}
	return r, nil
}

// servicePass sends tracedJobs jobs one at a time.
func (r *traceRun) servicePass(d *daemon, w *benchWorkload, gen *specGen, known []string) error {
	seen := map[string]bool{}
	for _, k := range known {
		seen[k] = true
	}
	t := r.tr
	traces0 := d.manager.TraceCacheStats()
	cells0 := d.manager.CellsExecuted()
	store0, _ := d.manager.StoreStats()
	t.beginPhase()
	for i := 0; i < w.tracedJobs; i++ {
		tj := &tracedJob{req: gen.next()}
		o := &outcome{job: tj.req}
		r.jobs = append(r.jobs, tj)
		r.outs = append(r.outs, o)
		job := fmt.Sprintf("j%03d", i)
		var client []int // this job's client-side spans, in time order
		o.ct.sent = time.Now()
		o.due = o.ct.sent
		executedBefore := d.manager.CellsExecuted()
		if i%2 == 0 {
			st, err := d.post(tj.req.spec)
			o.ct.submitted = time.Now()
			client = append(client, t.interval("server.submit", job, -1, o.ct.sent, o.ct.submitted))
			if err != nil {
				o.err = err
				r.non2xx += countNon2xx(err)
				continue
			}
			tj.id, tj.cacheHit = st.ID, st.CacheHit
		} else {
			var j *jobs.Job
			id, err := t.timed("jobs.submit", job, -1, func() (err error) {
				j, err = d.manager.Submit(tj.req.spec)
				return err
			})
			o.ct.submitted = time.Now()
			client = append(client, id)
			if err != nil {
				o.err = err
				continue
			}
			tj.id, tj.cacheHit = j.ID(), j.Status().CacheHit
		}
		o.ct.id = tj.id
		o.ct.streamAt = time.Now()
		err := d.stream(tj.id)
		o.ct.streamEnd = time.Now()
		client = append(client, t.interval("server.stream", job, -1, o.ct.streamAt, o.ct.streamEnd))
		if err != nil {
			o.err = err
			r.non2xx += countNon2xx(err)
			continue
		}
		dj, ok := d.manager.Get(tj.id)
		if !ok {
			o.err = fmt.Errorf("job %s vanished", tj.id)
			continue
		}
		st := dj.Status()
		submitted, started, finished := parseTime(st.SubmittedAt), parseTime(st.StartedAt), parseTime(st.FinishedAt)
		if !started.IsZero() {
			r.splitDaemon("jobs.queue_wait", job, submitted, started, client, false)
			r.splitDaemon("jobs.run", job, started, finished, client, true)
		}
		if finished.After(o.ct.streamAt) {
			r.streamWake += o.ct.streamEnd.Sub(finished)
		} else {
			r.streamWake += o.ct.streamEnd.Sub(o.ct.streamAt)
		}
		tj.res = dj.Result()
		var body []byte
		client = append(client, mustSpan(t.timed("report.render", job, -1, func() (err error) {
			if tj.req.format == "csv" {
				body, err = tj.res.CSV()
			} else {
				body, err = tj.res.JSON()
			}
			return err
		})))
		r.resultBytes += int64(len(body))
		o.ct.resultAt = time.Now()
		o.ct.body, err = d.result(tj.id, tj.req.format)
		o.ct.done = time.Now()
		t.interval("server.result", job, -1, o.ct.resultAt, o.ct.done)
		if err != nil {
			o.err = err
			r.non2xx += countNon2xx(err)
			continue
		}
		if tj.cacheHit {
			r.resultCacheHits++
			continue
		}
		r.cellsPlanned += len(tj.res.Cells)
		for ci, c := range tj.res.Cells {
			if seen[c.Key] {
				tj.served = append(tj.served, ci)
			} else {
				seen[c.Key] = true
				tj.executed = append(tj.executed, ci)
			}
		}
		if got := d.manager.CellsExecuted() - executedBefore; got != uint64(len(tj.executed)) {
			return fmt.Errorf("job %s: daemon executed %d cells, benchmark expected %d", tj.id, got, len(tj.executed))
		}
	}
	t.endPhase()
	traces1 := d.manager.TraceCacheStats()
	store1, _ := d.manager.StoreStats()
	r.traceStats = fleet.TraceCacheStats{
		Hits:      traces1.Hits - traces0.Hits,
		Misses:    traces1.Misses - traces0.Misses,
		Evictions: traces1.Evictions - traces0.Evictions,
	}
	r.cellsExecuted = d.manager.CellsExecuted() - cells0
	r.storeStats = store.Stats{
		Hits: store1.Hits - store0.Hits, Misses: store1.Misses - store0.Misses,
		Writes: store1.Writes - store0.Writes,
	}
	return nil
}

func mustSpan(id int, err error) int {
	if err != nil {
		panic(err) // rendering a finished result cannot fail
	}
	return id
}

func parseTime(s string) time.Time {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

// splitDaemon records the daemon-side interval [from, to] of one job as
// children of the client spans it overlaps, and as root spans where it
// falls between them.
func (r *traceRun) splitDaemon(name, job string, from, to time.Time, client []int, replayed bool) {
	t := r.tr
	add := func(parent int, a, b time.Time) {
		if !b.After(a) {
			return
		}
		id := t.interval(name, job, parent, a, b)
		t.spans[id].Replayed = replayed
	}
	cur := from
	for _, c := range client {
		s := t.spans[c]
		cs, ce := t.t0.Add(time.Duration(s.StartNs)), t.t0.Add(time.Duration(s.EndNs))
		if !ce.After(cur) {
			continue
		}
		if cs.After(cur) {
			add(-1, cur, minTime(cs, to))
			cur = cs
		}
		if !to.After(cur) {
			return
		}
		add(c, cur, minTime(ce, to))
		cur = minTime(ce, to)
	}
	add(-1, cur, to)
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// layerSample picks the jobs whose executed cells the layer pass
// re-executes: a seeded sample of layerJobs, or all.
func (r *traceRun) layerSample(w *benchWorkload, seed int64) []*tracedJob {
	var cands []*tracedJob
	for _, tj := range r.jobs {
		if len(tj.executed) > 0 {
			cands = append(cands, tj)
		}
	}
	if w.layerJobs == 0 || w.layerJobs >= len(cands) {
		return cands
	}
	rng := rand.New(rand.NewSource(seed ^ 0x1a7e5))
	idx := rng.Perm(len(cands))[:w.layerJobs]
	sort.Ints(idx)
	out := make([]*tracedJob, len(idx))
	for i, k := range idx {
		out[i] = cands[k]
	}
	return out
}

// resolvedCell is one executed cell ready to re-execute.
type resolvedCell struct {
	idx     int
	scheme  fleet.Scheme
	profile power.Profile
}

// resolveJob resolves a job's cohort and its executed cells through the
// registries the jobs layer resolves against, checking the cell labels.
func resolveJob(tj *tracedJob) (fleet.Cohort, []resolvedCell, error) {
	s := tj.req.spec
	rc, err := fleet.ResolveCohort(workload.Cohorts(), s.Cohorts[0], s.Seed, &sim.Options{BurstGap: time.Second})
	if err != nil {
		return fleet.Cohort{}, nil, err
	}
	var cells []resolvedCell
	for _, ci := range tj.executed {
		c := tj.res.Cells[ci]
		pi, si := ci/len(s.Schemes), ci%len(s.Schemes)
		rp, err := s.Profiles[pi].Resolution(power.Default())
		if err != nil {
			return fleet.Cohort{}, nil, err
		}
		ss := s.Schemes[si]
		if ss.Active != nil {
			a := fleet.WithFixBurstGap(*ss.Active, time.Second)
			ss.Active = &a
		}
		rs, err := fleet.ResolveScheme(policy.Default(), ss)
		if err != nil {
			return fleet.Cohort{}, nil, err
		}
		if rs.Label != c.Scheme || rp.Profile.Name != c.Profile || rc.Label != c.Cohort {
			return fleet.Cohort{}, nil, fmt.Errorf("cell %d resolves to %s/%s/%s, daemon ran %s/%s/%s",
				ci, rs.Label, rp.Profile.Name, rc.Label, c.Scheme, c.Profile, c.Cohort)
		}
		cells = append(cells, resolvedCell{idx: ci, scheme: rs.Scheme, profile: rp.Profile})
	}
	return rc.Cohort, cells, nil
}

// layerPass re-executes the sampled jobs' executed cells: each user's
// traffic is generated and encoded once per job (as the trace cache
// does) and replayed from its slab in every cell. Traced, it records
// spans; either way every cell's summary bytes must equal the daemon's.
func (r *traceRun) layerPass(sample []*tracedJob, traced bool) error {
	t := r.tr
	if traced {
		t.beginPhase()
		defer t.endPhase()
	}
	var buf []trace.Packet
	for _, tj := range sample {
		cohort, cells, err := resolveJob(tj)
		if err != nil {
			return err
		}
		users := cohort.Jobs(cells[0].profile, []fleet.Scheme{cells[0].scheme})
		slabs := make(map[int64][]byte, len(users))
		for _, u := range users {
			start := time.Now()
			buf, err = drain(u.Source(u.Seed), buf[:0])
			if err != nil {
				return err
			}
			mid := time.Now()
			slab, err := trace.EncodeStream(trace.Trace(buf).Source())
			if err != nil {
				return err
			}
			slabs[u.Seed] = slab
			if traced {
				t.interval("workload.gen", tj.id, -1, start, mid)
				t.interval("trace.encode", tj.id, -1, mid, time.Now())
				r.packetsGenerated += int64(len(buf))
				r.slabBytes += int64(len(slab))
			}
		}
		for _, rc := range cells {
			if err := r.replayCell(tj, cohort, rc, slabs, traced, &buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayCell runs one cell through fleet.Run with one worker, renders it,
// and checks both the summary bytes and the rendering against the
// daemon's cell.
func (r *traceRun) replayCell(tj *tracedJob, cohort fleet.Cohort, rc resolvedCell, slabs map[int64][]byte, traced bool, buf *[]trace.Packet) error {
	t := r.tr
	scheme := rc.scheme
	acc := fleet.SummaryAccumulator(fleet.SummaryConfig{})
	c := &clock{}
	if traced {
		// Wrapped policies outlive the cell in the fleet workers' policy
		// cache, so they all write to the run's one clock.
		c = &r.clock
		scheme = timeScheme(scheme, c)
		acc = timedAccumulator(c)
	}
	before := *c
	fjobs := cohort.Jobs(rc.profile, []fleet.Scheme{scheme})
	for i := range fjobs {
		slab := slabs[fjobs[i].Seed]
		fjobs[i].CacheKey = ""
		fjobs[i].Source = func(int64) trace.Source { return &decodedSource{c: c, slab: slab, buf: buf} }
	}
	opts := fleet.Options{Workers: 1, Shards: tj.req.spec.Shards}
	if opts.Shards == 0 {
		opts.Shards = fleet.DefaultShards
	}
	start := time.Now()
	sum, err := fleet.Run(fjobs, opts, acc)
	end := time.Now()
	if err != nil {
		return err
	}
	renderStart := time.Now()
	rendered, err := report.JSON(report.SummaryStatsOf(sum))
	renderEnd := time.Now()
	if err != nil {
		return err
	}
	cell := tj.res.Cells[rc.idx]
	want, err := cell.JSON()
	if err != nil {
		return err
	}
	switch {
	case r.mismatch != "":
	case string(fleet.EncodeSummary(sum)) != string(fleet.EncodeSummary(cell.Summary)):
		r.mismatch = fmt.Sprintf("job %s cell %d: re-executed summary bytes differ from the daemon's", tj.id, rc.idx)
	case string(rendered) != string(want):
		r.mismatch = fmt.Sprintf("job %s cell %d: re-rendered JSON differs from the daemon's", tj.id, rc.idx)
	}
	if traced {
		id := t.interval("sim.replay", tj.id, -1, start, end)
		t.aggregate("trace.decode", tj.id, id, c.decode-before.decode, c.decodeCalls-before.decodeCalls)
		t.aggregate("policy.decide", tj.id, id, c.decide-before.decide, c.decideCalls-before.decideCalls)
		t.aggregate("policy.observe", tj.id, id, c.observe-before.observe, c.observeCalls-before.observeCalls)
		t.aggregate("fleet.fold", tj.id, id, c.fold-before.fold, c.foldCalls-before.foldCalls)
		t.aggregate("fleet.merge", tj.id, id, c.merge-before.merge, c.mergeCalls-before.mergeCalls)
		t.interval("report.render", tj.id, -1, renderStart, renderEnd)
	}
	return nil
}

// storePass reopens the run's store (journal recovery), reads back every
// cell the run served from a cache tier, and writes every executed cell's
// summary into a scratch store beside it.
func (r *traceRun) storePass(runDir, scratchDir string) error {
	t := r.tr
	t.beginPhase()
	defer t.endPhase()
	var st *store.Store
	if _, err := t.timed("store.open", "", -1, func() (err error) {
		st, err = store.Open(store.Config{Dir: runDir})
		return err
	}); err != nil {
		return err
	}
	for _, tj := range r.jobs {
		for _, ci := range tj.served {
			key := tj.res.Cells[ci].Key
			var ok bool
			t.timed("store.get", tj.id, -1, func() error {
				_, ok = st.Get(key)
				return nil
			})
			if !ok {
				st.Close()
				return fmt.Errorf("store has no cell %s the run served", key)
			}
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	if _, err := t.timed("store.open", "", -1, func() (err error) {
		st, err = store.Open(store.Config{Dir: scratchDir})
		return err
	}); err != nil {
		return err
	}
	defer st.Close()
	for _, tj := range r.jobs {
		for _, ci := range tj.executed {
			c := tj.res.Cells[ci]
			if _, err := t.timed("store.put", tj.id, -1, func() error {
				return st.Put(c.Key, fleet.EncodeSummary(c.Summary))
			}); err != nil {
				return err
			}
		}
	}
	return st.Close()
}

// loadgenLag runs a short open-loop segment over the run's store and
// returns the p99 of how late each job was sent after it was due. Only
// measured runs mark themselves invalid on a late generator; here the lag
// is reported.
func loadgenLag(w *benchWorkload, gen *specGen, seed int64, storeDir string) (time.Duration, error) {
	d, err := startDaemon(storeDir, w.conns)
	if err != nil {
		return 0, err
	}
	m := &measured{}
	runOpen(d, w, gen, seed, 2*time.Second, m)
	if err := d.close(); err != nil {
		return 0, err
	}
	return percentileDur(m.sendLags, 0.99), nil
}

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.DurNs)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.DurNs)
		}
	}
	return self
}

// perLayer computes the per-layer metrics from the spans and counters.
func (r *traceRun) perLayer() metrics {
	t := r.tr
	self := t.selfTimes()
	byName := map[string]time.Duration{}
	layerSelf := map[string]time.Duration{}
	var replayed, attributed time.Duration
	for i, s := range t.spans {
		if s.Replayed {
			replayed += time.Duration(s.DurNs)
			continue
		}
		byName[s.Name] += self[i]
		layer, _, _ := strings.Cut(s.Name, ".")
		layerSelf[layer] += self[i]
		attributed += self[i]
	}
	for _, s := range t.spans {
		if s.Replayed {
			byName[s.Name] += time.Duration(s.DurNs)
		}
	}
	wall := t.phases - replayed
	sec := func(name string) float64 { return byName[name].Seconds() }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := float64(r.traceStats.Hits), float64(r.traceStats.Misses)
	ms := metrics{
		{"workload.gen_s", sec("workload.gen"), "s"},
		{"workload.packets", float64(r.packetsGenerated), "count"},
		{"trace.encode_s", sec("trace.encode"), "s"},
		{"trace.decode_s", sec("trace.decode"), "s"},
		{"trace.slab_bytes_per_packet", ratio(float64(r.slabBytes), float64(r.packetsGenerated)), "B/packet"},
		{"fleet.trace_cache_hit_ratio", ratio(hits, hits+misses), "frac"},
		{"fleet.trace_cache_hits", hits, "count"},
		{"fleet.trace_generations", misses, "count"},
		{"fleet.trace_evictions", float64(r.traceStats.Evictions), "count"},
		{"fleet.fold_s", sec("fleet.fold"), "s"},
		{"fleet.merge_s", sec("fleet.merge"), "s"},
		{"sim.replay_self_s", sec("sim.replay"), "s"},
		{"sim.packets_replayed", float64(r.clock.packetsReplayed), "count"},
		{"sim.ns_per_packet", ratio(float64(byName["sim.replay"].Nanoseconds()), float64(r.clock.packetsReplayed)), "ns/packet"},
		{"policy.decide_s", sec("policy.decide"), "s"},
		{"policy.decide_calls", float64(r.clock.decideCalls), "count"},
		{"policy.ns_per_decide", ratio(float64(byName["policy.decide"].Nanoseconds()), float64(r.clock.decideCalls)), "ns/call"},
		{"policy.observe_s", sec("policy.observe"), "s"},
		{"jobs.submit_s", sec("jobs.submit"), "s"},
		{"jobs.queue_wait_s", sec("jobs.queue_wait"), "s"},
		{"jobs.run_s", sec("jobs.run"), "s"},
		{"jobs.cells_executed", float64(r.cellsExecuted), "count"},
		{"jobs.cell_cache_hit_ratio", ratio(float64(r.cellsPlanned)-float64(r.cellsExecuted), float64(r.cellsPlanned)), "frac"},
		{"jobs.result_cache_hit_ratio", ratio(float64(r.resultCacheHits), float64(len(r.jobs))), "frac"},
		{"store.open_s", sec("store.open"), "s"},
		{"store.get_s", sec("store.get"), "s"},
		{"store.put_s", sec("store.put"), "s"},
		{"store.writes", float64(r.storeStats.Writes), "count"},
		{"store.hits", float64(r.storeStats.Hits), "count"},
		{"store.hit_ratio", ratio(float64(r.storeStats.Hits), float64(r.storeStats.Hits+r.storeStats.Misses)), "frac"},
		{"store.bytes_per_cell", r.storeBytesCell, "B/cell"},
		{"report.render_s", sec("report.render"), "s"},
		{"report.bytes_per_result", ratio(float64(r.resultBytes), float64(len(r.jobs))), "B/result"},
		{"server.submit_rtt_s", sec("server.submit"), "s"},
		{"server.stream_wake_s", r.streamWake.Seconds(), "s"},
		{"server.result_rtt_s", sec("server.result"), "s"},
		{"server.non2xx", float64(r.non2xx), "count"},
		{"loadgen.send_lag_p99_s", r.sendLagP99.Seconds(), "s"},
		{"tracing.wall_s", wall.Seconds(), "s"},
		{"tracing.unattributed_s", (wall - attributed).Seconds(), "s"},
		{"tracing.overhead_frac", ratio(float64(r.tracedLayer-r.untracedLayer), float64(r.untracedLayer)), "frac"},
	}
	for _, layer := range []string{"workload", "trace", "fleet", "sim", "policy", "jobs", "store", "report", "server"} {
		ms = append(ms, metric{layer + ".self_s", layerSelf[layer].Seconds(), "s"})
	}
	return ms
}

// writeSpans writes the spans, the host stamp and the per-layer metrics
// to a JSON file.
func (r *traceRun) writeSpans(path string, host hostInfo, name string, seed int64) error {
	out := map[string]any{
		"host": host, "workload": name, "seed": seed,
		"spans": r.tr.spans, "metrics": metricsJSON(r.perLayer()),
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
