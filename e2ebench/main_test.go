package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelfTimeSyntheticTree pins self-time accounting on a hand-built
// span tree: overlapping children count once, children are clipped to
// their parent, unpositioned children are subtracted whole, grandchildren
// only reduce their own parent, and self time never goes negative.
func TestSelfTimeSyntheticTree(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, Dur: 100},
		{Name: "a", Parent: 0, Start: 10, Dur: 20},     // [10,30)
		{Name: "b", Parent: 0, Start: 20, Dur: 20},     // [20,40): overlaps a
		{Name: "c", Parent: 0, Start: 90, Dur: 30},     // [90,120): clipped to [90,100)
		{Name: "loose", Parent: 0, Start: -1, Dur: 15}, // position unknown
		{Name: "grand", Parent: 1, Start: 12, Dur: 5},  // inside a
		{Name: "over", Parent: -1, Start: 200, Dur: 10},
		{Name: "big", Parent: 6, Start: 200, Dur: 7},
		{Name: "big-loose", Parent: 6, Start: -1, Dur: 7},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - 30 - 10 - 15, // root: a∪b covers 30, c covers 10, loose 15
		20 - 5,             // a: grand
		20, 30, 15, 5,
		0, // over: children exceed it
		7, 7,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.done("hook", 0)
	r.end(inner)
	r.within(outer, "hist", 1)
	r.end(outer)
	if p := r.spans[inner].Parent; p != outer {
		t.Errorf("inner parent %d, want %d", p, outer)
	}
	if p := r.spans[2].Parent; p != inner {
		t.Errorf("hook parent %d, want %d (innermost open span)", p, inner)
	}
	agg := r.aggregate()
	if agg["outer"].N != 1 || agg["hist"].N != 1 {
		t.Errorf("aggregate %+v", agg)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x")) // a nil recorder records nothing
}

func TestParseProm(t *testing.T) {
	const text = `# TYPE vnfoptd_request_seconds summary
vnfoptd_request_seconds{route="POST /v1/scenarios",quantile="0.5"} 0.3
vnfoptd_request_seconds_sum{route="POST /v1/scenarios"} 1.5
vnfoptd_request_seconds_count{route="POST /v1/scenarios"} 3
vnfoptd_request_seconds_sum{route="POST /v1/scenarios/{id}/rates"} 2
vnfoptd_request_seconds_count{route="POST /v1/scenarios/{id}/rates"} 8
vnfopt_engine_epochs_total{scenario="a"} 4
vnfopt_engine_epochs_total{scenario="b"} 6
vnfopt_wal_segments 2
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("vnfopt_engine_epochs_total"); got != 10 {
		t.Errorf("epochs sum %v, want 10", got)
	}
	if got := p.sum("vnfoptd_request_seconds"); got != 0 {
		t.Errorf("quantile samples must not be summed, got %v", got)
	}
	zero := promSample{}
	if got := meanDelta(zero, p, "vnfoptd_request_seconds", routeLabel("POST /v1/scenarios")); got != 0.5 {
		t.Errorf("create mean %v, want 0.5 (route label must not match sub-routes)", got)
	}
	if got := delta(zero, p, "vnfopt_wal_segments"); got != 2 {
		t.Errorf("unlabelled delta %v", got)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value must fail")
	}
}

func TestTailSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {101, 0.9}, {901, 0.9}, {902, 0.99}, {9001, 0.99}, {9002, 0.999}} {
		if got := supportedQuantile(c.n); got != c.want {
			t.Errorf("n=%d: supported p%g, want p%g", c.n, got*100, c.want*100)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks the
// program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i := range prog {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, w := range bf.Workloads {
		if _, ok := workloadCtors[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

// workloadMetrics are the metrics each workload reports under its own
// names in the human-readable report.
var workloadMetrics = map[string][]string{
	"day-tom":     {"setup_s", "epoch_p50_ms", "epoch_tail_ms", "epoch_mean_ms", "epochs_per_s", "peak_rss_mb", "failed_frac"},
	"fault-route": {"setup_s", "epoch_p50_ms", "epoch_tail_ms", "fault_p50_ms", "fault_tail_ms", "fault_mean_ms", "epochs_per_s", "peak_rss_mb", "failed_frac"},
	"ingest-wal":  {"setup_s", "bulk_p50_ms", "bulk_tail_ms", "bulk_mean_ms", "rates_p50_ms", "rates_tail_ms", "read_p50_ms", "read_tail_ms", "ingest_updates_per_s", "recovery_s", "peak_rss_mb", "failed_frac"},
	"fleet-churn": {"setup_s", "create_p50_ms", "create_tail_ms", "create_mean_ms", "lifecycles_per_s", "peak_rss_mb", "failed_frac"},
}

var units = map[string]string{"s": "s", "ms": "ms", "per_s": "1/s", "mb": "MB", "frac": "ratio"}

// TestWorkloadsTiny is the short-mode self-test: it builds the daemon,
// runs every workload at tiny scale with tracing off and on, and checks
// that the result line carries every contract metric with its unit, the
// report every workload metric with its unit, and that the daemon's
// answers passed the fidelity checks.
func TestWorkloadsTiny(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "vnfoptd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/vnfoptd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build vnfoptd: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: name, seed: 3, seconds: 1, trace: trace, daemon: bin, workdir: filepath.Join(dir, "work"), tiny: true}
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Errorf("last line is not the result: %v", err)
				}
				reported := reportedMetrics(out.String())
				for _, m := range workloadMetrics[name] {
					unit, ok := reported[m]
					if !ok {
						t.Errorf("report lacks %s", m)
						continue
					}
					if want := units[m[strings.LastIndex(m, "_")+1:]]; want != unit && !(strings.HasSuffix(m, "per_s") && unit == "1/s") {
						t.Errorf("%s reported in %q, want %q", m, unit, want)
					}
				}
			})
		}
	}
}

// reportedMetrics parses the report's "# name value unit" lines.
func reportedMetrics(out string) map[string]string {
	got := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "#" {
			got[f[1]] = f[3]
		}
	}
	return got
}
