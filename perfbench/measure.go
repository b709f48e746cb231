package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
)

// outcome is one timed job as the client saw it.
type outcome struct {
	job jobReq
	ct  callTimes
	// due is when the job was due to be sent (open loop) or was sent
	// (closed loop); latency runs from due to the result bytes.
	due time.Time
	err error
	// wrong marks result bytes that differ from the reference.
	wrong bool
}

func (o *outcome) ok() bool { return o.err == nil && !o.wrong }

func (o *outcome) latency() time.Duration { return o.ct.done.Sub(o.due) }

// measured is the result of one untraced run.
type measured struct {
	setups   []time.Duration
	outs     []*outcome
	wall     time.Duration
	peakRSS  int64
	sendLags []time.Duration // open loop: sent − due per job
	wakeLags []time.Duration // open loop: dispatcher wake − due per job
	backlogs []int           // open loop: due-but-unsent jobs at each send
	invalid  string          // why the open loop's load was not as offered
	checked  int             // outcomes compared against the reference
}

// measuredRun sets the daemon up (several times; setup_s is the median),
// runs the workload for seconds with tracing off, then checks results
// against the sequential reference.
func measuredRun(w *benchWorkload, seed int64, seconds int, scratch string) (*measured, error) {
	gen := w.newGen(seed)
	first := gen.next()
	popular, _, err := popularStore(w, gen, scratch)
	if err != nil {
		return nil, err
	}
	m := &measured{}
	var (
		d     *daemon
		total time.Duration
	)
	for k := 0; k < setupRuns || total < setupMin; k++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		d, _, err = setupDaemon(w, popular, first)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0))
		total += m.setups[k]
	}
	window := time.Duration(seconds) * time.Second
	// Heap left over from set-up is returned to the OS first, so the
	// peak belongs to the window.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	if w.open {
		runOpen(d, w, gen, seed, window, m)
		m.peakRSS = rss.stop()
	} else {
		runClosed(d, gen, window, m, rss)
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	checked, err := checkOutcomes(w, seed, m.outs)
	if err != nil {
		return nil, err
	}
	m.checked = checked
	return m, nil
}

// runClosed sends the next job only once the previous one's result
// arrived, until the window has elapsed. It stops rss after closedRSSJobs
// jobs, or at the end of the window if fewer completed.
func runClosed(d *daemon, gen *specGen, window time.Duration, m *measured, rss *rssSampler) {
	start := time.Now()
	for time.Since(start) < window {
		o := &outcome{job: gen.next()}
		o.ct, o.err = d.runJob(o.job)
		o.due = o.ct.sent
		m.outs = append(m.outs, o)
		if len(m.outs) == closedRSSJobs {
			m.peakRSS = rss.stop()
		}
	}
	m.wall = time.Since(start)
	if len(m.outs) < closedRSSJobs {
		m.peakRSS = rss.stop()
	}
}

// runOpen sends jobs on a seeded Poisson schedule at the workload's rate,
// over at most conns connections, timing each from when it was due.
func runOpen(d *daemon, w *benchWorkload, gen *specGen, seed int64, window time.Duration, m *measured) {
	n := int(w.rate * window.Seconds())
	sched := arrivals(seed, n, w.rate)
	m.outs = make([]*outcome, n)
	for i := range m.outs {
		m.outs[i] = &outcome{job: gen.next()}
	}
	slots := make(chan struct{}, w.conns)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lastDone time.Time
	start := time.Now().Add(10 * time.Millisecond)
	for i, at := range sched {
		o := m.outs[i]
		o.due = start.Add(at)
		if wait := time.Until(o.due); wait > 0 {
			time.Sleep(wait)
		}
		m.wakeLags = append(m.wakeLags, time.Since(o.due))
		slots <- struct{}{}
		sent := time.Now()
		m.sendLags = append(m.sendLags, sent.Sub(o.due))
		m.backlogs = append(m.backlogs, sort.Search(n, func(k int) bool { return start.Add(sched[k]).After(sent) })-i-1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			o.ct, o.err = d.runJob(o.job)
			end := time.Now()
			mu.Lock()
			if end.After(lastDone) {
				lastDone = end
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	m.wall = lastDone.Sub(start)
	m.invalid = loadValidity(m.wakeLags, m.backlogs, w.conns, time.Duration(float64(time.Second)/w.rate))
}

// loadValidity reports why an open-loop run did not apply the offered
// load: from the first quarter of the schedule to the last, the
// dispatcher's mean wake lag grew by more than one mean inter-arrival gap
// (the generator fell behind), or the mean backlog of due-but-unsent jobs
// grew by more than the connection count. A single late send is not a
// reason: jobs are timed from when they were due, so it is in the
// latencies already.
func loadValidity(wakeLags []time.Duration, backlogs []int, conns int, gap time.Duration) string {
	q := len(backlogs) / 4
	if q == 0 {
		return ""
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	lags := make([]float64, len(wakeLags))
	for i, l := range wakeLags {
		lags[i] = l.Seconds()
	}
	if head, tail := mean(lags[:q]), mean(lags[len(lags)-q:]); tail > head+gap.Seconds() {
		return fmt.Sprintf("load generator fell behind its schedule (mean wake lag %.1fms in the first quarter, %.1fms in the last)",
			head*1e3, tail*1e3)
	}
	queued := make([]float64, len(backlogs))
	for i, b := range backlogs {
		queued[i] = float64(b)
	}
	if head, tail := mean(queued[:q]), mean(queued[len(queued)-q:]); tail > head+float64(conns) {
		return fmt.Sprintf("backlog grew from %.1f to %.1f due jobs", head, tail)
	}
	return ""
}

// reference is the cache-free sequential executor the oracle compares
// against: no result, cell or trace cache, one worker, one cell at a time.
type reference struct {
	m       *jobs.Manager
	results map[string]*jobs.Result // by spec JSON
}

func newReference() *reference {
	return &reference{
		m: jobs.NewManager(jobs.Config{
			CacheSize: -1, CellCacheSize: -1, TraceCacheBytes: -1,
			Workers: 1, CellParallel: 1,
		}),
		results: map[string]*jobs.Result{},
	}
}

// bytesFor returns the reference rendering of a job's spec in its format,
// running each distinct spec once.
func (r *reference) bytesFor(j jobReq) ([]byte, error) {
	key, err := json.Marshal(j.spec)
	if err != nil {
		return nil, err
	}
	res, ok := r.results[string(key)]
	if !ok {
		job, err := r.m.Submit(j.spec)
		if err != nil {
			return nil, fmt.Errorf("reference submit: %w", err)
		}
		<-job.Done()
		if err := job.Err(); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		res = job.Result()
		r.results[string(key)] = res
	}
	if j.format == "csv" {
		return res.CSV()
	}
	return res.JSON()
}

// checkOutcomes compares delivered result bytes with the reference: every
// outcome when the workload's sample is 0, else a seeded sample. Every
// other delivered result must at least parse and carry its cells.
// A mismatch marks the outcome wrong. It returns how many were compared.
func checkOutcomes(w *benchWorkload, seed int64, outs []*outcome) (int, error) {
	ref := newReference()
	defer ref.m.Close()
	idx := make([]int, 0, len(outs))
	for i, o := range outs {
		if o.err == nil {
			idx = append(idx, i)
		}
	}
	sample := map[int]bool{}
	if w.oracleSample == 0 || w.oracleSample >= len(idx) {
		for _, i := range idx {
			sample[i] = true
		}
	} else {
		rng := rand.New(rand.NewSource(seed ^ 0x0dac1e))
		for _, k := range rng.Perm(len(idx))[:w.oracleSample] {
			sample[idx[k]] = true
		}
	}
	for _, i := range idx {
		o := outs[i]
		if !sample[i] {
			o.wrong = !plausible(o)
			continue
		}
		want, err := ref.bytesFor(o.job)
		if err != nil {
			return 0, err
		}
		o.wrong = !bytes.Equal(want, o.ct.body)
	}
	return len(sample), nil
}

// firstWrong names the first outcome whose result bytes the oracle
// rejected, or returns "" when there is none.
func firstWrong(outs []*outcome) string {
	for i, o := range outs {
		if o.wrong {
			return fmt.Sprintf("job %d (%s, %s result) delivered bytes that differ from the reference", i, o.ct.id, o.job.format)
		}
	}
	return ""
}

// plausible is the check on results outside the oracle sample: the JSON
// parses and carries every planned cell (grids, one fingerprinted cell
// each) or every scheme (single-axis jobs, which render flat).
func plausible(o *outcome) bool {
	if o.job.format != "json" {
		return len(o.ct.body) > 0
	}
	var res struct {
		Jobs    int64                      `json:"jobs"`
		Schemes map[string]json.RawMessage `json:"schemes"`
		Cells   []struct {
			Fingerprint string `json:"fingerprint"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(o.ct.body, &res); err != nil {
		return false
	}
	if len(o.job.spec.Profiles) == 1 && len(o.job.spec.Cohorts) == 1 {
		return res.Jobs > 0 && len(res.Schemes) == len(o.job.spec.Schemes)
	}
	if len(res.Cells) != o.job.cells {
		return false
	}
	for _, c := range res.Cells {
		if len(c.Fingerprint) != 64 {
			return false
		}
	}
	return true
}

// endToEnd turns a measured run into the end-to-end metrics, plus the
// ones printed for reading but left out of the result line: the p99
// latency, which on a shared host moves with other tenants' disk and CPU
// bursts far beyond any bound (one slow fsync holds the store's lock and
// stalls every store read behind it), and failed_frac, which is 0 on a
// correct run and travels as attempted and failed instead. A failed,
// refused or wrong job counts as infinitely slow in the latency
// percentiles and as missing the latency limit.
func endToEnd(w *benchWorkload, m *measured) (result, printed metrics, attempted, failed int) {
	lat := make([]float64, 0, len(m.outs))
	var cells int
	var userHours float64
	var good, inSLO int
	for _, o := range m.outs {
		if !o.ok() {
			failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		good++
		cells += o.job.cells
		userHours += o.job.userHours
		l := o.latency()
		lat = append(lat, l.Seconds())
		if l <= w.slo {
			inSLO++
		}
	}
	attempted = len(m.outs)
	wall := m.wall.Seconds()
	setups := make([]float64, len(m.setups))
	for i, s := range m.setups {
		setups[i] = s.Seconds()
	}
	capInf := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return wall
		}
		return v
	}
	result = metrics{
		{"setup_s", median(setups), "s"},
		{"job_latency_p50_s", capInf(percentile(lat, 0.50)), "s"},
		{"cells_per_s", float64(cells) / wall, "1/s"},
		{"sim_user_hours_per_s", userHours / wall, "1/s"},
		{"jobs_per_s", float64(good) / wall, "1/s"},
		{"slo_attainment", float64(inSLO) / float64(attempted), "frac"},
		{"peak_rss_mb", float64(m.peakRSS) / (1 << 20), "MiB"},
	}
	printed = metrics{
		{"job_latency_p99_s", capInf(percentile(lat, 0.99)), "s"},
		{"failed_frac", float64(failed) / float64(attempted), "frac"},
	}
	return result, printed, attempted, failed
}

// percentile interpolates linearly between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func percentileDur(xs []time.Duration, p float64) time.Duration {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return time.Duration(percentile(f, p))
}

// rssSampler tracks the process's peak resident set while it runs.
type rssSampler struct {
	stopCh chan struct{}
	done   chan int64
}

// startRSSSampler polls /proc/self/statm every few milliseconds.
func startRSSSampler() *rssSampler {
	s := &rssSampler{stopCh: make(chan struct{}), done: make(chan int64, 1)}
	page := int64(os.Getpagesize())
	go func() {
		peak := int64(0)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := readRSSPages() * page; v > peak {
				peak = v
			}
			select {
			case <-s.stopCh:
				s.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak in bytes.
func (s *rssSampler) stop() int64 {
	close(s.stopCh)
	return <-s.done
}

func readRSSPages() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	v, _ := strconv.ParseInt(f[1], 10, 64)
	return v
}
