package policy

import (
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
// windowed gap or a fixed grid wait, so the implementation precomputes
// them — per gap at Observe time, per candidate wait at construction —
// and Decide reduces to compare-and-add over the window. The summation
// order (window order, oldest gap first) and every individual term are
// unchanged, so the chosen waits are bit-identical to evaluating the
// energy functions inline.
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

	// gridCost[i] = TailJ(grid[i]) + Eswitch: the no-arrival branch of
	// E[E_wait_switch(grid[i])], and (addition being commutative) also the
	// paper's literal Eswitch + E(t_wait) used under WithPaperExpectation.
	gridCost []float64
	// satGapJ = TailJ(tail) + Eswitch: E(g) for gaps past the timer tail,
	// where the status-quo cost saturates.
	satGapJ float64
	tail    time.Duration

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
	gridCost := make([]float64, cfg.gridSteps)
	for i := range grid {
		grid[i] = th * time.Duration(i) / time.Duration(cfg.gridSteps-1)
		gridCost[i] = energy.TailJ(&p, grid[i]) + eswitch
	}
	return &MakeIdle{
		profile:   p,
		threshold: th,
		grid:      grid,
		gridCost:  gridCost,
		satGapJ:   energy.TailJ(&p, p.Tail()) + eswitch,
		tail:      p.Tail(),
		ring:      make([]gapSample, cfg.windowSize),
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

// Observe implements DemotePolicy: slide the window forward, memoizing the
// gap's two energy terms so Decide never re-evaluates them.
func (m *MakeIdle) Observe(gap time.Duration) {
	tj := energy.TailJ(&m.profile, gap)
	gj := tj
	if gap > m.tail {
		gj = m.satGapJ
	}
	m.ring[m.head] = gapSample{gap: gap, tailJ: tj, gapJ: gj}
	m.head = (m.head + 1) % len(m.ring)
	if m.count < len(m.ring) {
		m.count++
	}
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
	for i, w := range m.grid {
		var eWait float64
		if m.paperExp {
			// Paper's literal eq.: Eswitch + E(t_wait), unconditionally.
			eWait = m.gridCost[i]
		} else {
			wcost := m.gridCost[i]
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
			eWait /= n
		}
		if gain := eNoSwitch - eWait; gain > bestGain {
			bestGain = gain
			bestWait = w
		}
	}
	m.lastWait = bestWait
	return bestWait
}

// Reset implements DemotePolicy.
func (m *MakeIdle) Reset() {
	m.head, m.count = 0, 0
	m.lastWait = Never
}
