// Command perfbench is the repository benchmark. It runs one workload
// against the real service stack — jobs.NewManager configured as rrcsimd
// configures it, behind server.New, in process over loopback HTTP — and
// prints the workload's metrics with their units.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// Workloads are paper-grid and service-mix (see workloads.go and
// BENCHMARK.json for why each exists). Every job is POSTed to /v1/jobs,
// its stream read to EOF, and its result fetched; the first job of a run
// is part of set-up and is not timed.
//
// With --trace 0 the run is measured with tracing off and the last line
// of standard output carries the end-to-end metrics. With --trace 1 a
// separate traced run records spans around the calls into each layer and
// the last line carries the per-layer metrics; the spans are written to
// a JSON file under the output directory when the run ends (traced.go).
//
// Every run checks result bytes against a cache-free sequential
// reference (jobs.Manager with caches off, one worker, one cell at a
// time); a mismatch counts as a failed job and makes the run incorrect.
// Each output record is stamped with the host and the source it measured.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

type metrics []metric

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-grid or service-mix")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured window in seconds; the traced run has a fixed size per workload instead")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	scratch, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	host := hostStamp()
	res, err := runWorkload(w, *seed, *seconds, *traced == 1, scratch, *out, host, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs the measured or traced run and prints the host record
// and a readable table ahead of the result line.
func runWorkload(w *benchWorkload, seed int64, seconds int, traced bool, scratch, out string, host hostInfo, stdout io.Writer) (*result, error) {
	record := map[string]any{"record": "host", "workload": w.name, "seed": seed, "trace": traced, "host": host}
	line, err := json.Marshal(record)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)

	var (
		ms, printed       metrics // printed is shown but not in the result line
		attempted, failed int
		correct           = true
		notes             []string
	)
	if traced {
		tr, err := tracedRun(w, seed, scratch)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
		if err := tr.writeSpans(path, host, w.name, seed); err != nil {
			return nil, err
		}
		ms = tr.perLayer()
		attempted, failed = tr.attempted, tr.failed
		if tr.mismatch != "" {
			correct = false
			notes = append(notes, tr.mismatch)
		}
		notes = append(notes, "spans written to "+path)
	} else {
		m, err := measuredRun(w, seed, seconds, scratch)
		if err != nil {
			return nil, err
		}
		if len(m.outs) == 0 {
			return nil, errors.New("no job was attempted in the window")
		}
		ms, printed, attempted, failed = endToEnd(w, m)
		if m.invalid != "" {
			correct = false
			notes = append(notes, "invalid run: "+m.invalid)
		}
		if why := firstWrong(m.outs); why != "" {
			correct = false
			notes = append(notes, why)
		}
		notes = append(notes, fmt.Sprintf("%d jobs, %d checked against the reference, send lag p99 %v",
			attempted, m.checked, percentileDur(m.sendLags, 0.99)))
	}
	for _, m := range append(ms, printed...) {
		fmt.Fprintf(stdout, "%-32s %14s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "#", n)
	}
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metricsJSON(ms)}, nil
}

func metricsJSON(ms metrics) map[string]metricJSON {
	out := make(map[string]metricJSON, len(ms))
	for _, m := range ms {
		out[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	return out
}
