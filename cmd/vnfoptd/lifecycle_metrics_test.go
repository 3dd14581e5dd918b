package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// scenarioSeries returns the /metrics series labelled with scenario id.
func scenarioSeries(t *testing.T, ts *httptest.Server, id string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for name, v := range promSnapshot(t, ts) {
		if strings.Contains(name, `scenario="`+id+`"`) {
			out[name] = v
		}
	}
	return out
}

// TestDeleteDropsScenarioMetrics: a deleted scenario's engine series
// leave /metrics, and re-creating the id starts its counters at zero.
func TestDeleteDropsScenarioMetrics(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	spec := ScenarioSpec{ID: "m1", Flows: 8, Seed: 1}
	epochs := `vnfopt_engine_epochs_total{scenario="m1"}`
	for round := 0; round < 2; round++ {
		if code := do(t, ts, "POST", "/v1/scenarios", spec, nil); code != http.StatusCreated {
			t.Fatalf("round %d: create: %d", round, code)
		}
		if got, ok := scenarioSeries(t, ts, "m1")[epochs]; !ok || got != 0 {
			t.Fatalf("round %d: fresh scenario epochs = %v (exposed %v), want 0", round, got, ok)
		}
		if code := do(t, ts, "POST", "/v1/scenarios/m1/step", nil, nil); code != http.StatusOK {
			t.Fatalf("round %d: step: %d", round, code)
		}
		if got := scenarioSeries(t, ts, "m1")[epochs]; got != 1 {
			t.Fatalf("round %d: epochs after one step = %v, want 1", round, got)
		}
		if code := do(t, ts, "DELETE", "/v1/scenarios/m1", nil, nil); code != http.StatusOK {
			t.Fatalf("round %d: delete: %d", round, code)
		}
		if left := scenarioSeries(t, ts, "m1"); len(left) != 0 {
			t.Fatalf("round %d: %d series outlived the delete, e.g. %v", round, len(left), left)
		}
	}
}

// TestFailedCreateDropsScenarioMetrics: a create rejected after its
// observer was registered leaves no series behind.
func TestFailedCreateDropsScenarioMetrics(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	spec := ScenarioSpec{ID: "bad", Pairs: []PairSpec{{Src: 0, Dst: 9999, Rate: 1}}}
	if code := do(t, ts, "POST", "/v1/scenarios", spec, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("create with an out-of-range pair: %d, want 422", code)
	}
	if left := scenarioSeries(t, ts, "bad"); len(left) != 0 {
		t.Fatalf("failed create left %d series, e.g. %v", len(left), left)
	}
}

// TestFabricCacheMetrics: creates over one fabric build its APSP once;
// the rest are cache hits, visible in /metrics.
func TestFabricCacheMetrics(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	// A fabric no other test builds: its first create is a miss.
	spec := ScenarioSpec{Topology: "leaf-spine", Leaves: 7, Spines: 3, HostsPerLeaf: 5, Flows: 8}
	before := promSnapshot(t, ts)
	for i := 0; i < 3; i++ {
		if code := do(t, ts, "POST", "/v1/scenarios", spec, nil); code != http.StatusCreated {
			t.Fatalf("create %d: %d", i, code)
		}
	}
	after := promSnapshot(t, ts)
	delta := func(name string) float64 { return after[name] - before[name] }
	if got := delta("vnfopt_fabric_cache_misses_total"); got != 1 {
		t.Fatalf("fabric cache misses +%v over three creates, want +1", got)
	}
	if got := delta("vnfopt_fabric_cache_hits_total"); got != 2 {
		t.Fatalf("fabric cache hits +%v over three creates, want +2", got)
	}
	if got := delta("vnfopt_apsp_build_seconds_count"); got != 1 {
		t.Fatalf("apsp builds +%v over three creates, want +1", got)
	}
	if after["vnfopt_fabric_cache_entries"] < 1 {
		t.Fatalf("fabric cache entries %v, want at least 1", after["vnfopt_fabric_cache_entries"])
	}
}

// TestStrollTableMetrics: on a fresh daemon, one create over a fabric
// no other test builds and one step move both stroll-table counters.
func TestStrollTableMetrics(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	spec := ScenarioSpec{ID: "st", Topology: "leaf-spine", Leaves: 9, Spines: 2, HostsPerLeaf: 3, Flows: 8, SFCLen: 4}
	before := promSnapshot(t, ts)
	if code := do(t, ts, "POST", "/v1/scenarios", spec, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := do(t, ts, "POST", "/v1/scenarios/st/step", nil, nil); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	after := promSnapshot(t, ts)
	for _, name := range []string{"vnfopt_stroll_tables_built_total", "vnfopt_stroll_queries_total"} {
		if after[name] <= before[name] {
			t.Fatalf("%s %v -> %v over one create and one step, want it to grow", name, before[name], after[name])
		}
	}
}
