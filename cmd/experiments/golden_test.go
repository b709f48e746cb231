package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestMain lets the golden test run the command itself: a child process
// started with RUN_EXPERIMENTS_MAIN=1 executes main with the child's
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_EXPERIMENTS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenAll pins the rendering of every experiment at small trace
// lengths, byte for byte. The fleet worker count is fixed because the
// fleet experiment prints it; it never changes the numbers.
func TestGoldenAll(t *testing.T) {
	cmd := exec.Command(os.Args[0],
		"-run", "all", "-app-duration", "12m", "-user-duration", "15m", "-parallel", "2")
	cmd.Env = append(os.Environ(), "RUN_EXPERIMENTS_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments -run all: %v", err)
	}
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("output differs from %s at line %d:\ngot:  %s\nwant: %s",
					golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gotLines), golden, len(wantLines))
	}
}
