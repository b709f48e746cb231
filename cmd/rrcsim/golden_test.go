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
// started with RUN_RRCSIM_MAIN=1 executes main with the child's arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_RRCSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenFleetModes pins the fleet-mode renderings byte for byte: the
// single -users table and every grid shape (-users with repeated
// -profile, repeated -cohort, a lone -cohort). The wall time is cut from
// the header line; everything else must match.
func TestGoldenFleetModes(t *testing.T) {
	cases := map[string][]string{
		"users_table": {"-users", "8", "-duration", "15m", "-policy", "makeidle", "-active", "learn"},
		"users_profiles_grid": {"-users", "6", "-duration", "15m", "-policy", "all", "-burstgap", "2s",
			"-profile", "verizon-3g", "-profile", "verizon-lte(t1=5s)"},
		"cohorts_grid": {"-policy", "makeidle", "-active", "learn", "-shards", "4",
			"-cohort", "study-3g(users=4,duration=15m)", "-cohort", "mix(im=2,email=1,users=3,duration=15m)"},
		"single_cohort_grid": {"-policy", "4.5s", "-carrier", "AT&T HSPA+",
			"-cohort", "study-lte(users=3,duration=15m)"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"-parallel", "2"}, args...)...)
			cmd.Env = append(os.Environ(), "RUN_RRCSIM_MAIN=1")
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("rrcsim %v: %v", args, err)
			}
			got := stripWallTime(string(out))
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("output differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

// stripWallTime drops the trailing " in <duration>" from the header line.
func stripWallTime(out string) string {
	header, rest, _ := strings.Cut(out, "\n")
	if i := strings.LastIndex(header, " in "); i >= 0 {
		header = header[:i]
	}
	return header + "\n" + rest
}
