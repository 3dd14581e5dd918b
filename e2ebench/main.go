// Command e2ebench is the repository's end-to-end benchmark. It starts
// the vnfoptd daemon as a child process, drives one workload at it over
// loopback HTTP from at most conns client goroutines, one keep-alive
// connection each, checks the daemon's answers against an in-process replay
// of the same operations, and prints one JSON result as the last line of
// standard output. With --trace 1 it additionally replays the workload
// in-process with spans around every layer call and reports per-layer
// numbers instead of end-to-end ones.
//
// run.sh builds this program and cmd/vnfoptd from the checkout and runs
// it from the repository root:
//
//	bash e2ebench/run.sh --workload day-tom --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"vnfopt/internal/benchmeta"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon sees, reported with
// tracing off. "op" is each workload's headline operation (see
// workloadDef.primary) and ops_per_s the workload's throughput. The
// report also prints every workload's p50 and tail latencies under
// their own names; they are left out of the result line because on a
// small VM shared with other tenants they move by a quarter or more
// from run to run, while the mean and the throughput move by about a
// tenth.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_mean_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-module numbers of a traced run: counts from
// /metrics deltas around the timed phase, times from the traced replay.
// A layer a workload leaves idle reports 0.
var perLayer = []metricDef{
	{"vnfoptd.rates_server_ms", "ms"},
	{"vnfoptd.bulk_server_ms", "ms"},
	{"vnfoptd.step_server_ms", "ms"},
	{"vnfoptd.faults_server_ms", "ms"},
	{"vnfoptd.create_server_ms", "ms"},
	{"vnfoptd.placement_server_ms", "ms"},
	{"vnfoptd.client_gap_ms", "ms"},
	{"shard.mailbox_wait_ms", "ms"},
	{"shard.rejected_429", "count"},
	{"shard.queue_drained_mean", "count"},
	{"wal.append_ms", "ms"},
	{"wal.fsyncs_per_update", "ratio"},
	{"wal.bytes_per_update", "B"},
	{"wal.replayed_records", "count"},
	{"wal.replay_s", "s"},
	{"engine.ingest_us", "us"},
	{"engine.step_ms", "ms"},
	{"engine.step_self_ms", "ms"},
	{"engine.consult_ms", "ms"},
	{"engine.consults_per_epoch", "ratio"},
	{"engine.migrations_per_consult", "ratio"},
	{"engine.coalesced_frac", "ratio"},
	{"engine.apply_faults_ms", "ms"},
	{"engine.apply_faults_self_ms", "ms"},
	{"engine.repair_fallbacks", "count"},
	{"engine.new_ms", "ms"},
	{"model.new_ms", "ms"},
	{"model.cache_rebuilds", "count"},
	{"model.cache_deltas", "count"},
	{"model.cache_rebuild_ms", "ms"},
	{"placement.top_ms", "ms"},
	{"migration.consult_ms", "ms"},
	{"migration.expansions", "count"},
	{"graph.apsp_build_ms", "ms"},
	{"graph.apsp_builds", "count"},
	{"graph.apsp_delta_ms", "ms"},
	{"graph.apsp_deltas", "count"},
	{"graph.apsp_dirty_frac", "ratio"},
	{"fault.view_ms", "ms"},
	{"sfcroute.route_ms", "ms"},
	{"sfcroute.admitted_frac", "ratio"},
	{"proc.daemon_cpu_s", "s"},
	{"proc.client_cpu_s", "s"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // vnfoptd binary
	workdir  string // daemon state, logs, reports and spans
	tiny     bool   // self-test scale: every workload shrunk to seconds
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed generates the same operations")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced in-process replay")
	flag.StringVar(&cfg.daemon, "daemon", "", "path of the vnfoptd binary to benchmark")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/e2ebench", "directory for daemon state, logs and reports")
	flag.Parse()
	cfg.trace = trace == 1
	if _, err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one invocation, writes the report and the result line to
// out, and returns the result. An error means no result was produced.
func run(cfg config, out io.Writer) (*result, error) {
	if cfg.daemon == "" {
		return nil, errors.New("--daemon is required (run.sh builds it)")
	}
	if _, err := os.Stat(cfg.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds %v must be positive", cfg.seconds)
	}
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w}
	defer b.cleanup()
	rep, err := b.run()
	if err != nil {
		return nil, err
	}
	res := b.result(rep)
	if err := b.report(out, rep, res); err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// stamp identifies the host, the build and the inputs of a report.
type stamp struct {
	Host      benchmeta.Host     `json:"host"`
	NProc     int                `json:"nproc"`
	Revision  string             `json:"daemon_revision"`
	Build     map[string]string  `json:"daemon_build"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Tails     map[string]float64 `json:"tail_quantiles"`
	Conns     int                `json:"connections"`
	SetupReps int                `json:"setup_repetitions"`
}

// report prints the human-readable report (every metric by the name the
// workload gives it, with its unit and sample counts) and saves it, with
// the host and build stamp, as JSON in the work directory.
func (b *bench) report(out io.Writer, rep *runReport, res *result) error {
	st := stamp{
		Host: benchmeta.Collect(), NProc: runtime.NumCPU(), Revision: b.build["revision"], Build: b.build,
		Workload: b.w.name, Seed: b.cfg.seed, Seconds: b.cfg.seconds, Trace: b.cfg.trace,
		Tails: b.w.tails, Conns: conns, SetupReps: b.w.reps,
	}
	if st.Revision == "" {
		st.Revision = "unknown"
	}
	fmt.Fprintf(out, "# e2ebench %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d %s daemon_revision=%s\n",
		b.w.name, b.cfg.seed, b.cfg.seconds, b.cfg.trace, st.NProc, st.Host.GOMAXPROCS, st.Host.GoVersion, st.Revision)
	for _, s := range rep.series {
		fmt.Fprintf(out, "# series %-8s n=%d p50=%.4fms p%g=%.4fms (%d beyond; highest supported p%g) mean=%.4fms\n",
			s.Name, s.N, s.P50, s.TailQ*100, s.Tail, s.Beyond, s.Highest*100, s.Mean)
	}
	for _, m := range rep.named {
		fmt.Fprintf(out, "# %-24s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "# attempted=%d failed=%d failed_frac=%.6g retried_429=%d fidelity=%s\n",
		rep.acct.attempted, rep.acct.failed, ratio(float64(rep.acct.failed), float64(rep.acct.attempted)), rep.acct.retried, rep.fidelity)
	for _, e := range rep.acct.errs {
		fmt.Fprintf(out, "# error: %s\n", e)
	}
	doc := struct {
		Stamp  stamp         `json:"stamp"`
		Series []summary     `json:"series"`
		Named  []namedMetric `json:"workload_metrics"`
		Result *result       `json:"result"`
		Errors []string      `json:"errors,omitempty"`
	}{Stamp: st, Series: rep.series, Named: rep.named, Result: res, Errors: rep.acct.errs}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", b.w.name, b.cfg.seed, btoi(b.cfg.trace))
	return os.WriteFile(filepath.Join(b.cfg.workdir, name), data, 0o644)
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// result assembles the contract's result line: the end-to-end metrics
// with tracing off, the per-layer metrics with it on.
func (b *bench) result(rep *runReport) *result {
	res := &result{
		Correct:   rep.acct.failed == 0 && rep.mismatches == 0,
		Attempted: rep.acct.attempted,
		Failed:    rep.acct.failed,
		Metrics:   map[string]metric{},
	}
	defs, vals := endToEnd, rep.e2e
	if b.cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// cleanup stops the daemon and removes its state (the WAL of an ingest
// run is tens of MB).
func (b *bench) cleanup() {
	if b.d != nil {
		_ = b.d.stop(syscall.SIGKILL)
	}
	if b.state != "" {
		_ = os.RemoveAll(b.state)
	}
}

// elapsedSince is time.Since in seconds.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
