package policy

import (
	"math"
	"time"

	"repro/internal/energy"
	"repro/internal/power"
)

// MakeIdle is the paper's §4 algorithm. After each packet it chooses the
// dormancy wait t_wait that maximizes the expected energy gain over the
// status quo, using the empirical inter-arrival distribution of the last n
// packets:
//
//	f(t_wait) = E[E_no_switch] - E[E_wait_switch(t_wait)]
//
// where, against the windowed distribution of gaps g,
//
//	E[E_no_switch]        = mean_g E(g)            (the paper's eq. 1)
//	E[E_wait_switch(w)]   = mean_g  { Tail(g)              if g <= w
//	                                  Tail(w) + E_switch   if g  > w }
//
// The second expectation spells out the strategy "wait w; if a packet
// arrives first just pay the tail; otherwise demote and later promote".
// E(g) is energy.GapJ — the status-quo cost of a gap, including the switch
// the timers themselves eventually pay on long gaps. The candidate waits
// are a grid over [0, t_threshold] (§4.2 notes waits beyond t_threshold
// leave no room for savings); if even the best wait shows no expected gain,
// MakeIdle leaves the timers in charge for this packet.
//
// Every energy term above is a pure function of the profile and either a
// windowed gap or a fixed grid wait, so they are precomputed: per gap at
// Observe time, per candidate wait at construction.
//
// For a window of W gaps and G grid waits, Decide costs O(W + G) plus
// O(W) per re-checked wait, and its choice is bit-identical to the full
// O(W·G) scan that sums every wait's expectation in window order (oldest
// gap first). Observe also keeps the window sorted by gap, so one walk of
// the sorted grid against the sorted gaps, with a running prefix sum of
// tailJ, yields every wait's gain up to rounding. Each approximate gain
// carries a rigorous bound on its distance from the window-order gain
// (see gainBounds); only the waits whose bound interval can still hold
// the maximum are re-evaluated exactly, in window order, under the scan's
// strict ">" rule. On study traces that is one wait per decision
// (DecisionStats counts them).
type MakeIdle struct {
	profile   power.Profile
	threshold time.Duration
	grid      []time.Duration
	minSample int
	paperExp  bool

	// ring is the sliding window of recent inter-arrivals with their
	// energy terms memoized: ring[i].tailJ = TailJ(gap) (the arrival
	// branch of E[E_wait_switch]) and ring[i].gapJ = E(gap) (the
	// status-quo cost). head is the slot the next Observe writes; count
	// the number of valid samples.
	ring  []gapSample
	head  int
	count int
	// sorted holds the same count samples as the ring, ordered by gap.
	// Equal gaps carry equal terms, so which of them sits where is
	// immaterial.
	sorted []gapSample

	// gridCost[i] = TailJ(grid[i]) + Eswitch: the no-arrival branch of
	// E[E_wait_switch(grid[i])], and (addition being commutative) also the
	// paper's literal Eswitch + E(t_wait) used under WithPaperExpectation.
	gridCost []float64
	// hi is Decide's scratch: hi[i] is an upper bound on grid[i]'s
	// window-order gain, or -Inf for a wait that cannot win.
	hi []float64
	// satGapJ = TailJ(tail) + Eswitch: E(g) for gaps past the timer tail,
	// where the status-quo cost saturates.
	satGapJ float64
	tail    time.Duration
	// certified reports that gainBounds' rounding bound holds: the
	// window holds at most 2^24 gaps, every energy term is finite and
	// non-negative, and no sum over a full window can overflow. Otherwise Decide re-checks every wait that
	// gainBounds does not rule out structurally.
	certified bool

	// decisions counts the grid searches (Decide calls past warm-up),
	// rechecks the waits they evaluated exactly in window order.
	decisions, rechecks int64

	lastWait time.Duration
}

// gapSample is one windowed inter-arrival with its memoized energy terms.
type gapSample struct {
	gap   time.Duration
	tailJ float64
	gapJ  float64
}

// MakeIdleOption customizes construction.
type MakeIdleOption func(*makeIdleConfig)

type makeIdleConfig struct {
	windowSize int
	gridSteps  int
	minSample  int
	paperExp   bool
}

// WithWindowSize sets the number of recent inter-arrivals used to build the
// distribution (the paper's n; default 100, swept in Fig. 13).
func WithWindowSize(n int) MakeIdleOption {
	return func(c *makeIdleConfig) { c.windowSize = n }
}

// WithGridSteps sets how many candidate waits are evaluated across
// [0, t_threshold] (default 40).
func WithGridSteps(n int) MakeIdleOption {
	return func(c *makeIdleConfig) { c.gridSteps = n }
}

// WithMinSample sets how many gaps must be observed before MakeIdle starts
// demoting (default 10; below this it defers to the timers).
func WithMinSample(n int) MakeIdleOption {
	return func(c *makeIdleConfig) { c.minSample = n }
}

// WithPaperExpectation switches E[E_wait_switch] to the paper's literal
// formula, Eswitch + E(t_wait), which charges the switch unconditionally
// instead of only on the no-arrival branch. Under that formula f(t_wait)
// is maximized at t_wait = 0 whenever demotion is profitable at all, so
// the policy degenerates to demote-immediately-or-never. Kept as an
// ablation (BenchmarkAblationExpectation measures it); the default is the
// full strategy expectation, which the paper's step-1
// conditional-probability argument implies.
func WithPaperExpectation() MakeIdleOption {
	return func(c *makeIdleConfig) { c.paperExp = true }
}

// NewMakeIdle builds the policy for a profile. The profile must be valid.
func NewMakeIdle(p power.Profile, opts ...MakeIdleOption) (*MakeIdle, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := makeIdleConfig{windowSize: 100, gridSteps: 40, minSample: 10}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.windowSize < 1 {
		cfg.windowSize = 1
	}
	if cfg.gridSteps < 2 {
		cfg.gridSteps = 2
	}
	if cfg.minSample < 1 {
		cfg.minSample = 1
	}
	th := energy.Threshold(&p)
	eswitch := p.SwitchJ()
	grid := make([]time.Duration, cfg.gridSteps)
	// One allocation each for the grid's float columns and the two
	// window orders, so construction allocates as much as before.
	costs := make([]float64, 2*cfg.gridSteps)
	gridCost, hi := costs[:cfg.gridSteps:cfg.gridSteps], costs[cfg.gridSteps:]
	for i := range grid {
		grid[i] = th * time.Duration(i) / time.Duration(cfg.gridSteps-1)
		gridCost[i] = energy.TailJ(&p, grid[i]) + eswitch
	}
	samples := make([]gapSample, 2*cfg.windowSize)
	satGapJ := energy.TailJ(&p, p.Tail()) + eswitch
	// TailJ is non-decreasing, so TailJ(Never) bounds every gap's tailJ
	// and gridCost's last entry every wait's cost. The comparisons are
	// false for NaN.
	maxJ := max(energy.TailJ(&p, Never), satGapJ, gridCost[cfg.gridSteps-1])
	return &MakeIdle{
		profile:   p,
		threshold: th,
		grid:      grid,
		gridCost:  gridCost,
		hi:        hi,
		satGapJ:   satGapJ,
		tail:      p.Tail(),
		certified: cfg.windowSize <= 1<<24 && maxJ >= 0 &&
			maxJ <= math.MaxFloat64/float64(8*cfg.windowSize),
		ring:      samples[:cfg.windowSize:cfg.windowSize],
		sorted:    samples[cfg.windowSize:cfg.windowSize],
		minSample: cfg.minSample,
		paperExp:  cfg.paperExp,
		lastWait:  Never,
	}, nil
}

// Name implements DemotePolicy.
func (m *MakeIdle) Name() string { return "MakeIdle" }

// Threshold exposes the computed t_threshold.
func (m *MakeIdle) Threshold() time.Duration { return m.threshold }

// WindowLen reports how many gaps the distribution currently holds.
func (m *MakeIdle) WindowLen() int { return m.count }

// LastWait returns the wait chosen by the most recent Decide (Never when
// the policy deferred to the timers). Fig. 14 plots this trajectory.
func (m *MakeIdle) LastWait() time.Duration { return m.lastWait }

// DecisionStats reports how many grid searches Decide has run since
// construction (calls past warm-up; Reset keeps the count) and how many
// candidate waits those searches re-evaluated exactly in window order.
// Their ratio is the cost of certifying the O(W + G) walk.
func (m *MakeIdle) DecisionStats() (decisions, rechecks int64) {
	return m.decisions, m.rechecks
}

// Observe implements DemotePolicy: slide the window forward, memoizing the
// gap's two energy terms so Decide never re-evaluates them, and keep the
// sorted copy in step: the evicted gap's entry is found by binary search
// and the entries between it and the new gap's place shift by one.
func (m *MakeIdle) Observe(gap time.Duration) {
	tj := energy.TailJ(&m.profile, gap)
	gj := tj
	if gap > m.tail {
		gj = m.satGapJ
	}
	s := gapSample{gap: gap, tailJ: tj, gapJ: gj}
	j := m.upper(gap)
	if m.count == len(m.ring) {
		// Full window: the new gap replaces the oldest, m.ring[m.head].
		old := m.ring[m.head].gap
		i := m.upper(old) - 1 // an entry equal to old
		if gap >= old {
			copy(m.sorted[i:j-1], m.sorted[i+1:j])
			m.sorted[j-1] = s
		} else {
			copy(m.sorted[j+1:i+1], m.sorted[j:i])
			m.sorted[j] = s
		}
	} else {
		m.sorted = m.sorted[:m.count+1]
		copy(m.sorted[j+1:], m.sorted[j:m.count])
		m.sorted[j] = s
		m.count++
	}
	m.ring[m.head] = s
	m.head = (m.head + 1) % len(m.ring)
}

// upper returns the number of sorted entries with gap <= g.
func (m *MakeIdle) upper(g time.Duration) int {
	lo, hi := 0, len(m.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.sorted[mid].gap <= g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// window returns the ring's live samples as (up to) two contiguous spans,
// oldest gap first — the same iteration order dist.Window.Each used, which
// fixes the float summation order in Decide.
func (m *MakeIdle) window() (a, b []gapSample) {
	start := m.head - m.count
	if start < 0 {
		start += len(m.ring)
	}
	if start+m.count <= len(m.ring) {
		return m.ring[start : start+m.count], nil
	}
	return m.ring[start:], m.ring[:start+m.count-len(m.ring)]
}

// Decide implements DemotePolicy.
func (m *MakeIdle) Decide(time.Duration) time.Duration {
	if m.count < m.minSample {
		m.lastWait = Never
		return Never
	}
	m.decisions++
	wa, wb := m.window()
	// Expected status-quo energy for a gap drawn from the window.
	n := float64(m.count)
	var eNoSwitch float64
	for i := range wa {
		eNoSwitch += wa[i].gapJ
	}
	for i := range wb {
		eNoSwitch += wb[i].gapJ
	}
	eNoSwitch /= n

	bestWait := Never
	bestGain := 0.0 // only accept strictly positive expected gain
	if m.paperExp {
		for i, w := range m.grid {
			// Paper's literal eq.: Eswitch + E(t_wait), unconditionally.
			eWait := m.gridCost[i]
			if gain := eNoSwitch - eWait; gain > bestGain {
				bestGain = gain
				bestWait = w
			}
		}
		m.lastWait = bestWait
		return bestWait
	}
	// Ascending re-check of the waits that can still be the full scan's
	// answer, under its strict ">" rule. The full scan's winner w* is the
	// first wait holding the maximum gain G*, and a certified candidate:
	// no -Inf marker (see gainBounds), hi[w*] >= G* >= lo, and
	// hi[w*] >= G* > 0 when the scan demotes at all. Every other wait's
	// window-order gain is below G*, or equal to it at a later index, so
	// re-checking the candidates in order picks w* and nothing else;
	// when G* <= 0 no exact gain passes ">" and the answer stays Never.
	lo := m.gainBounds(eNoSwitch)
	for i, hi := range m.hi {
		if hi < lo || hi <= 0 {
			continue
		}
		m.rechecks++
		if gain := eNoSwitch - m.exactWait(i); gain > bestGain {
			bestGain = gain
			bestWait = m.grid[i]
		}
	}
	m.lastWait = bestWait
	return bestWait
}

// exactWait returns E[E_wait_switch(grid[i])] over the window, summed in
// window order: the reference arithmetic whose result bits Decide's choice
// reproduces.
func (m *MakeIdle) exactWait(i int) float64 {
	wa, wb := m.window()
	w, wcost := m.grid[i], m.gridCost[i]
	var eWait float64
	for k := range wa {
		if wa[k].gap <= w {
			eWait += wa[k].tailJ
		} else {
			eWait += wcost
		}
	}
	for k := range wb {
		if wb[k].gap <= w {
			eWait += wb[k].tailJ
		} else {
			eWait += wcost
		}
	}
	return eWait / float64(m.count)
}

// gainBounds fills m.hi with an upper bound on each grid wait's
// window-order gain G_i = eNoSwitch - exactWait(i) and returns lo, a
// lower bound on max_i G_i, in one walk of the grid against the sorted
// window.
//
// A wait whose set of gaps <= w equals its predecessor's sums the same
// tailJ terms in the same order and, in place of the others, a gridCost
// that is no smaller (TailJ is non-decreasing and rounding is monotone),
// so its gain is at most its predecessor's and never passes ">" after
// it. Such a wait gets hi = -Inf; this covers the whole flat run past the
// largest gap. Without certification every other wait is a candidate
// (hi = +Inf, lo = -Inf).
//
// The bound. Let u = 2^-53, n = count, γ_k = k·u/(1-k·u), E = eNoSwitch
// (the same float in both paths), t_1..t_n >= 0 the wait's terms, T their
// exact sum and A = T/n. The window-order sum rounds n-1 times and the
// division once, so its expectation R has |R - A| <= γ_n·A. The walk's
// prefix of the c gaps <= w rounds c-1 times, (n-c)·gridCost and the final
// add once each, so every term passes at most n+1 roundings and, after
// the division, the walk's expectation V has |V - A| <= γ_{n+2}·A.
// Each subtraction from E adds u·|E - R| and u·|E - V|. Together
//
//	|G_i - g_i| <= (γ_n + γ_{n+2})·A + u·(2|E| + R + V)
//	            <= 2γ_{n+3}·(|E| + A) <= 2γ_{n+3}/(1-γ_{n+2})·(|E| + V)
//	             = 2(n+3)·u·(|E| + V)·(1 + O(n·u)).
//
// δ = 4(n+3)·u·(|E| + V) is twice that leading term. The other half, at
// least 8u·(|E| + V), covers the O(n·u) factor (below 2^-26 for
// n <= 2^24), the three relative roundings in computing δ, and the
// rounding of g ± δ, at most u·(|g| + δ) with |g| <= (|E| + V)·(1+u).
// The 2^-1000 term absorbs gradual underflow in the divisions and the
// product, a few 2^-1075 at most. A fused multiply-add only removes
// roundings. Certification requires n <= 2^24 and rules out overflow (n
// times the largest term is at most MaxFloat64/8) and non-finite or
// negative terms, which the relative-error model needs.
func (m *MakeIdle) gainBounds(eNoSwitch float64) (lo float64) {
	s := m.sorted
	n := len(s)
	nf := float64(n)
	relErr := float64(4*(n+3)) * 0x1p-53
	absE := math.Abs(eNoSwitch)
	lo = math.Inf(-1)
	c := 0
	var prefix float64
	for i, w := range m.grid {
		start := c
		for c < n && s[c].gap <= w {
			prefix += s[c].tailJ
			c++
		}
		switch {
		case i > 0 && c == start:
			m.hi[i] = math.Inf(-1)
		case !m.certified:
			m.hi[i] = math.Inf(1)
		default:
			eWait := (prefix + float64(n-c)*m.gridCost[i]) / nf
			g := eNoSwitch - eWait
			d := relErr*(absE+eWait) + 0x1p-1000
			lo = max(lo, g-d)
			m.hi[i] = g + d
		}
	}
	return lo
}

// Reset implements DemotePolicy.
func (m *MakeIdle) Reset() {
	m.head, m.count = 0, 0
	m.sorted = m.sorted[:0]
	m.lastWait = Never
}
