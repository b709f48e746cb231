package policy

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/spec"
	"repro/internal/workload"
)

// referenceDecide is the full O(W·G) scan Decide replaced: every grid
// wait's expectation summed in window order, the strict ">" rule from a
// zero gain. It reads the policy's state without changing it.
func referenceDecide(m *MakeIdle) time.Duration {
	if m.count < m.minSample {
		return Never
	}
	wa, wb := m.window()
	var eNoSwitch float64
	for _, s := range wa {
		eNoSwitch += s.gapJ
	}
	for _, s := range wb {
		eNoSwitch += s.gapJ
	}
	eNoSwitch /= float64(m.count)
	bestWait, bestGain := Never, 0.0
	for i, w := range m.grid {
		if gain := eNoSwitch - m.exactWait(i); gain > bestGain {
			bestGain, bestWait = gain, w
		}
	}
	return bestWait
}

// checkSorted fails unless m.sorted is the live window in gap order.
func checkSorted(t *testing.T, m *MakeIdle) {
	t.Helper()
	wa, wb := m.window()
	want := append(append([]gapSample(nil), wa...), wb...)
	slices.SortFunc(want, func(a, b gapSample) int {
		if a.gap < b.gap {
			return -1
		}
		if a.gap > b.gap {
			return 1
		}
		return 0
	})
	if !slices.Equal(m.sorted, want) {
		t.Fatalf("sorted window %v, want %v", m.sorted, want)
	}
}

// hugeProfile is the test profile with state powers near MaxFloat64: a
// window's sum can overflow, so NewMakeIdle must not certify the rounding
// bound and Decide re-checks every wait.
func hugeProfile() power.Profile {
	p := idleProfile()
	p.Name = "huge"
	p.T1MW, p.T2MW = 1e308, 5e307
	return p
}

// oracleProfiles is every registered carrier plus the round-number and
// huge test profiles.
func oracleProfiles(t testing.TB) []power.Profile {
	out := []power.Profile{idleProfile(), hugeProfile()}
	reg := power.Default()
	for _, s := range reg.Schemas() {
		p, err := reg.NamedProfile(spec.Spec{Name: s.Name}, s.Name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// runOracle builds a MakeIdle from the drawn configuration and feeds it
// the gap stream the bytes encode. After every step Decide and LastWait
// must equal the reference scan, and the sorted window must match the
// ring. Each op byte picks one of: a zero gap, a gap exactly on a grid
// wait or 1 ns either side of it, a repeat of the previous gap, a gap past
// the timer tail, a Never-scale gap, a uniform gap up to twice the tail,
// or a Reset.
func runOracle(t *testing.T, profiles []power.Profile, prof uint8, window uint16, steps, minSample uint8, stream []byte) {
	p := profiles[int(prof)%len(profiles)]
	m, err := NewMakeIdle(p,
		WithWindowSize(1+int(window)%400),
		WithGridSteps(2+int(steps)%99),
		WithMinSample(1+int(minSample)%32))
	if err != nil {
		t.Fatal(err)
	}
	next := func() byte {
		if len(stream) == 0 {
			return 0
		}
		b := stream[0]
		stream = stream[1:]
		return b
	}
	gridWait := func() time.Duration { return m.grid[int(next())%len(m.grid)] }
	tail := p.Tail()
	var prev time.Duration
	for len(stream) > 0 {
		op := next()
		var gap time.Duration
		switch op % 9 {
		case 0:
			gap = 0
		case 1:
			gap = gridWait()
		case 2:
			gap = max(gridWait()-1, 0)
		case 3:
			gap = gridWait() + 1
		case 4:
			gap = prev
		case 5:
			gap = tail + time.Duration(next())*100*time.Millisecond
		case 6:
			gap = Never - time.Duration(next())
		case 7:
			gap = 2 * tail * time.Duration(int(next())<<8|int(next())) / (1 << 16)
		case 8:
			m.Reset()
			checkSorted(t, m)
			if got := m.Decide(0); got != Never || m.LastWait() != Never {
				t.Fatalf("after Reset: Decide = %v, LastWait = %v", got, m.LastWait())
			}
			continue
		}
		prev = gap
		m.Observe(gap)
		checkSorted(t, m)
		want := referenceDecide(m)
		if got := m.Decide(0); got != want || m.LastWait() != want {
			t.Fatalf("%s window=%d grid=%d minSample=%d after gap %v: Decide = %v, LastWait = %v, reference %v",
				p.Name, len(m.ring), len(m.grid), m.minSample, gap, got, m.LastWait(), want)
		}
	}
}

// FuzzMakeIdleDecideMatchesReference holds Decide's certified O(W + G)
// search to the full window-order scan on arbitrary configurations and
// gap streams.
func FuzzMakeIdleDecideMatchesReference(f *testing.F) {
	profiles := oracleProfiles(f)
	f.Add(uint8(0), uint16(99), uint8(38), uint8(9), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(3), uint16(0), uint8(0), uint8(0), []byte{1, 5, 2, 5, 3, 5, 4, 8, 0, 6, 0})
	f.Add(uint8(4), uint16(9), uint8(3), uint8(2), []byte{7, 9, 200, 7, 1, 2, 7, 40, 4, 4, 4, 7, 255, 255, 1, 39})
	f.Add(uint8(2), uint16(399), uint8(98), uint8(0), []byte{5, 255, 6, 255, 1, 98, 2, 98, 3, 98, 4, 4, 4})
	for _, g := range []int{4, 6, 11, 41} {
		f.Add(uint8(0), uint16(0), uint8(g-2), uint8(0), tieStream(rand.New(rand.NewSource(int64(g))), g, 1))
	}
	f.Fuzz(func(t *testing.T, prof uint8, window uint16, steps, minSample uint8, stream []byte) {
		runOracle(t, profiles, prof, window, steps, minSample, stream)
	})
}

// tieStream encodes, for the round-number test profile (TailJ(w) = w in
// seconds below t1, Eswitch = t_threshold = 1.5) and a grid of g waits, a
// shuffled window of j·s gaps on grid[j] and (g-1-j)·s gaps at the tail.
// Waits 0 and grid[j] then have equal expected gain in exact arithmetic,
// so their computed gains differ only by rounding, which depends on the
// summation order: the near-ties a certification bound has to cover. A
// window of s·(g-1) gaps holds exactly one such set.
func tieStream(r *rand.Rand, g, s int) []byte {
	j := 1 + r.Intn(g-1)
	var ops [][]byte
	for k := 0; k < j*s; k++ {
		ops = append(ops, []byte{1, byte(j)})
	}
	for k := 0; k < (g-1-j)*s; k++ {
		ops = append(ops, []byte{5, 0})
	}
	r.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	var out []byte
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// TestMakeIdleDecideMatchesReference is the fuzz target's seeded-corpus
// property test: random configurations and op streams from fixed seeds,
// long enough to fill and slide the windows.
func TestMakeIdleDecideMatchesReference(t *testing.T) {
	profiles := oracleProfiles(t)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		stream := make([]byte, 200+r.Intn(1200))
		r.Read(stream)
		// Runs of one op stress ties: repeated values, gaps on one grid
		// wait, and long-gap or zero-gap windows.
		if i%3 == 0 {
			op := stream[0] % 8
			for k := 0; k+1 < len(stream); k += 2 {
				if r.Intn(4) != 0 {
					stream[k] = op
				}
			}
		}
		runOracle(t, profiles, uint8(r.Intn(256)), uint16(r.Intn(1<<16)),
			uint8(r.Intn(256)), uint8(r.Intn(256)), stream)
	}
	for i := 0; i < 200; i++ {
		g, s := 3+r.Intn(60), 1+r.Intn(4)
		stream := tieStream(r, g, s)
		// Slide the window over a second shuffle of the same multiset.
		stream = append(stream, tieStream(r, g, s)...)
		runOracle(t, profiles, 0, uint16(s*(g-1)-1), uint8(g-2), 0, stream)
	}
}

// TestMakeIdleCertification pins which profiles get the certified
// search: every registered carrier at the largest oracle window, and not
// a profile whose window sums can overflow.
func TestMakeIdleCertification(t *testing.T) {
	for _, p := range oracleProfiles(t) {
		m, err := NewMakeIdle(p, WithWindowSize(400))
		if err != nil {
			t.Fatal(err)
		}
		if want := p.Name != "huge"; m.certified != want {
			t.Errorf("%s: certified = %v, want %v", p.Name, m.certified, want)
		}
	}
}

// TestMakeIdleResetMatchesFresh guards the sorted window under reuse: the
// fleet keeps one policy per worker and Resets it between jobs, so a
// policy that saw one trace must, after Reset, decide a second trace
// exactly as a fresh instance does.
func TestMakeIdleResetMatchesFresh(t *testing.T) {
	users := workload.Verizon3GUsers()
	gapsOf := func(u workload.User, seed int64) []time.Duration {
		tr := u.Generate(seed, 12*time.Hour)
		gaps := make([]time.Duration, 0, len(tr))
		for i := 1; i < len(tr); i++ {
			gaps = append(gaps, tr[i].T-tr[i-1].T)
		}
		return gaps
	}
	first, second := gapsOf(users[0], 1), gapsOf(users[1], 2)
	if len(first) < 500 || len(second) < 500 {
		t.Fatalf("traces too short: %d and %d gaps", len(first), len(second))
	}
	for _, p := range oracleProfiles(t) {
		used, err := NewMakeIdle(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range first {
			used.Decide(0)
			used.Observe(g)
		}
		used.Reset()
		fresh, err := NewMakeIdle(p)
		if err != nil {
			t.Fatal(err)
		}
		for k, g := range second {
			if a, b := used.Decide(0), fresh.Decide(0); a != b {
				t.Fatalf("%s gap %d: reused policy chose %v, fresh %v", p.Name, k, a, b)
			}
			used.Observe(g)
			fresh.Observe(g)
		}
		checkSorted(t, used)
	}
}
