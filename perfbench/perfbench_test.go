package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// specJSON renders the first n jobs of a workload's sequence, plus its
// store fill, as the bytes the daemon would receive.
func specJSON(t *testing.T, w *benchWorkload, seed int64, n int) []string {
	t.Helper()
	gen := w.newGen(seed)
	var out []string
	for _, j := range gen.fill {
		b, err := json.Marshal(j.spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, "fill "+string(b))
	}
	for i := 0; i < n; i++ {
		j := gen.next()
		b, err := json.Marshal(j.spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, j.format+" "+string(b))
	}
	return out
}

func TestSpecSequenceRepeatsForSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := specJSON(t, w, 7, 300), specJSON(t, w, 7, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different spec sequences", w.name)
		}
		if reflect.DeepEqual(a, specJSON(t, w, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same spec sequence", w.name)
		}
	}
}

func TestArrivalScheduleRepeatsForSeed(t *testing.T) {
	a, b := arrivals(7, 1000, 50), arrivals(7, 1000, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 gave two different arrival schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, 1000, 50)) {
		t.Fatal("seeds 7 and 8 gave the same arrival schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	if last, span := a[len(a)-1].Seconds(), 1000/50.0; last < 0 || last >= span {
		t.Fatalf("last arrival at %.3fs, want within the %.0fs schedule", last, span)
	}
}

// counts are the traced run's exact counts: every per-layer metric whose
// unit is "count".
func counts(r *traceRun) map[string]float64 {
	out := map[string]float64{}
	for _, m := range r.perLayer() {
		if m.unit == "count" {
			out[m.name] = m.value
		}
	}
	return out
}

func TestTracedCountsRepeatForSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced run twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs []map[string]float64
			for i := 0; i < 2; i++ {
				r, err := tracedRun(w, 7, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if r.mismatch != "" || r.failed != 0 {
					t.Fatalf("traced run %d: %d failed jobs, mismatch %q", i, r.failed, r.mismatch)
				}
				runs = append(runs, counts(r))
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("counts differ between two runs of seed 7:\n%v\n%v", runs[0], runs[1])
			}
			if runs[0]["jobs.cells_executed"] == 0 || runs[0]["workload.packets"] == 0 {
				t.Errorf("traced run did no work: %v", runs[0])
			}
		})
	}
}

func TestSplitDaemonExcludesTheRunFromClientSpans(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	stream := tr.interval("server.stream", "j", -1, at(0), at(10))
	r := &traceRun{tr: tr}
	// The daemon starts running 2ms before the client opens the stream.
	r.splitDaemon("jobs.run", "j", at(-2), at(8), []int{stream}, true)
	self := tr.selfTimes()
	if got := self[stream]; got != 2*time.Millisecond {
		t.Fatalf("stream self time %v, want 2ms (10ms minus the 8ms of run inside it)", got)
	}
	var replayed time.Duration
	for _, s := range tr.spans {
		if s.Replayed {
			replayed += time.Duration(s.DurNs)
		}
	}
	if replayed != 10*time.Millisecond {
		t.Fatalf("replayed %v, want the whole 10ms run, split into a root and a child", replayed)
	}
}

func TestLoadValidityFlagsOnlyTrends(t *testing.T) {
	const n, conns, gap = 400, 2, 20 * time.Millisecond
	lags := make([]time.Duration, n)
	backlog := make([]int, n)
	for i := range lags {
		lags[i] = time.Millisecond
	}
	lags[n-1] = 200 * time.Millisecond // one late wake-up is not a trend
	if why := loadValidity(lags, backlog, conns, gap); why != "" {
		t.Errorf("steady load marked invalid: %s", why)
	}
	falling := append([]time.Duration(nil), lags...)
	for i := range falling {
		falling[i] = time.Duration(i) * time.Millisecond
	}
	if loadValidity(falling, backlog, conns, gap) == "" {
		t.Error("a generator whose lag grows by 400ms was not marked invalid")
	}
	growing := make([]int, n)
	for i := range growing {
		growing[i] = i / 50
	}
	if loadValidity(lags, growing, conns, gap) == "" {
		t.Error("a backlog growing to 8 due jobs was not marked invalid")
	}
}
