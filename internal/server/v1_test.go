package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/policy"
)

// TestPoliciesEndpointMatchesRegistry is the guard: GET /v1/policies must
// stay in lockstep with the policy registry — every registered schema
// present under its role, every alias attributed, every parameter carrying
// a kind and a default. A policy registered without a schema cannot exist
// (the registry rejects it), and one missing from the discovery payload
// fails here.
func TestPoliciesEndpointMatchesRegistry(t *testing.T) {
	ts, _ := newTestServer(t)
	body, code := getBody(t, ts.URL+"/v1/policies")
	if code != http.StatusOK {
		t.Fatalf("/v1/policies returned %d", code)
	}
	var catalog PolicyCatalog
	if err := json.Unmarshal(body, &catalog); err != nil {
		t.Fatal(err)
	}
	reg := policy.Default()
	for _, role := range []struct {
		role policy.Role
		got  []policy.SchemaInfo
	}{
		{policy.RoleDemote, catalog.Demote},
		{policy.RoleActive, catalog.Active},
	} {
		schemas := reg.Schemas(role.role)
		if len(role.got) != len(schemas) {
			t.Fatalf("%s: endpoint lists %d policies, registry has %d",
				role.role, len(role.got), len(schemas))
		}
		listed := map[string]policy.SchemaInfo{}
		var aliases []string
		for _, info := range role.got {
			listed[info.Name] = info
			aliases = append(aliases, info.Aliases...)
		}
		for _, s := range schemas {
			info, ok := listed[s.Name]
			if !ok {
				t.Fatalf("%s %q registered but not listed", role.role, s.Name)
			}
			if len(info.Params) != len(s.Params) {
				t.Fatalf("%s %q: %d params listed, schema has %d",
					role.role, s.Name, len(info.Params), len(s.Params))
			}
			for _, p := range info.Params {
				if p.Kind == "" || p.Default == "" {
					t.Fatalf("%s %q parameter %q missing kind or default", role.role, s.Name, p.Name)
				}
			}
			if info.TraceFitted != s.TraceFitted || info.GapLookahead != s.GapLookahead {
				t.Fatalf("%s %q capabilities drifted", role.role, s.Name)
			}
		}
		want := reg.Aliases(role.role)
		if len(aliases) != len(want) {
			t.Fatalf("%s: endpoint lists aliases %v, registry has %v", role.role, aliases, want)
		}
	}
}

// TestSweepMatchesSeparateJobs is the acceptance criterion: one POST
// /v1/jobs sweeping three parameterized fixedtail schemes returns
// per-scheme summaries byte-identical to three separate single-scheme
// jobs on the same seed.
func TestSweepMatchesSeparateJobs(t *testing.T) {
	ts, m := newTestServer(t)
	cohort := `"seed": 51, "shards": 4,
		"profiles": [{"label": "Verizon 3G", "name": "Verizon 3G"}],
		"cohorts": [{"name": "study-3g", "params": {"users": 4, "duration": "15m"}}]`
	schemes := []string{
		`{"policy": {"name": "fixedtail", "params": {"wait": "2s"}}}`,
		`{"policy": {"name": "fixedtail"}}`,
		`{"policy": {"name": "fixedtail", "params": {"wait": "8s"}}}`,
	}
	type result struct {
		Schemes map[string]json.RawMessage `json:"schemes"`
	}
	fetchSchemes := func(body string) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s returned %d", body, resp.StatusCode)
		}
		waitDone(t, m, st.ID)
		raw, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result returned %d: %s", code, raw)
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		return r.Schemes
	}

	separate := map[string]json.RawMessage{}
	for _, s := range schemes {
		got := fetchSchemes(fmt.Sprintf(`{%s, "schemes": [%s]}`, cohort, s))
		if len(got) != 1 {
			t.Fatalf("single-scheme job returned %d schemes", len(got))
		}
		for label, stats := range got {
			separate[label] = stats
		}
	}
	sweep := fetchSchemes(fmt.Sprintf(`{%s, "schemes": [%s]}`, cohort, strings.Join(schemes, ", ")))
	if len(sweep) != len(schemes) {
		t.Fatalf("sweep returned %d schemes, want %d", len(sweep), len(schemes))
	}
	for label, stats := range sweep {
		want, ok := separate[label]
		if !ok {
			t.Fatalf("sweep scheme %q has no separate-job counterpart (have %v)",
				label, keysOf(separate))
		}
		if !bytes.Equal(stats, want) {
			t.Fatalf("scheme %q: sweep summary differs from the separate job:\n%s\nvs\n%s",
				label, stats, want)
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
