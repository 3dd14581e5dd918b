package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// bench is one invocation's state: the daemon under test, the client,
// and everything measured so far.
type bench struct {
	cfg   config
	w     *workloadDef
	d     *daemon
	c     *client
	state string
	build map[string]string

	acct       acct
	fleetRecs  []record // the initial fleet's creates, from the last set-up
	mismatches int
	layer      map[string]float64
}

// namedMetric is a metric under the workload's own name (epoch_p50_ms,
// recovery_s, …), printed in the report.
type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is what the timed phase produced.
type phase struct {
	records       [][]record // per connection, in order
	series        map[string]*series
	late          []float64 // open loop: how late each send started (ms)
	wall          time.Duration
	before, after promSample
	daemonCPU     float64
	clientCPU     float64
	rssMB         float64
}

// all returns every record of the phase.
func (ph *phase) all() []record {
	var out []record
	for _, rs := range ph.records {
		out = append(out, rs...)
	}
	return out
}

// runReport is everything one invocation measured.
type runReport struct {
	acct       acct
	mismatches int
	fidelity   string
	series     []summary
	named      []namedMetric
	e2e        map[string]float64
	layer      map[string]float64
}

// run performs set-up, the timed phase, the workload's extra phases and
// the replay, and computes every metric.
func (b *bench) run() (*runReport, error) {
	b.state = filepath.Join(b.cfg.workdir, "state-"+strconv.Itoa(os.Getpid()))
	b.layer = map[string]float64{}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	b.c = newClient(addr)
	b.d = &daemon{
		bin:  b.cfg.daemon,
		args: []string{"-addr", addr, "-log-level", "warn"},
		log:  filepath.Join(b.cfg.workdir, "daemon-"+b.w.name+".log"),
	}
	if b.w.args != nil {
		b.d.args = append(b.d.args, b.w.args(b.state)...)
	}
	if err := os.Truncate(b.d.log, 0); err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	// Set-up, repeated: a fresh daemon over empty state each time, up to
	// /readyz 200 and the initial fleet created.
	var setups []float64
	for rep := 0; rep < b.w.reps; rep++ {
		if rep > 0 {
			if err := b.d.stop(syscall.SIGKILL); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(b.state); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(b.state, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := b.d.start(); err != nil {
			return nil, err
		}
		if err := b.d.waitOK(b.c.hc, b.c.base+"/readyz", 60*time.Second); err != nil {
			return nil, err
		}
		b.fleetRecs = b.fleetRecs[:0]
		for _, o := range b.w.fleet {
			b.fleetRecs = append(b.fleetRecs, send(b.c, &b.acct, o))
		}
		setups = append(setups, elapsedSince(t0))
	}
	var health struct {
		Build map[string]string `json:"build"`
	}
	if err := b.c.get("/healthz", &health); err != nil {
		return nil, err
	}
	b.build = health.Build

	ph, err := b.timed()
	if err != nil {
		return nil, err
	}
	var named []namedMetric
	if b.w.after != nil {
		extra, err := b.w.after(b, ph)
		if err != nil {
			return nil, err
		}
		named = append(named, extra...)
	}
	if err := b.d.stop(syscall.SIGKILL); err != nil {
		return nil, err
	}

	rep := &runReport{fidelity: "none", e2e: map[string]float64{}, layer: b.layer}
	if err := b.replay(ph, rep); err != nil {
		return nil, err
	}
	rep.acct = b.acct
	rep.acct.failed += b.mismatches
	rep.mismatches = b.mismatches

	// End-to-end metrics.
	rep.e2e["setup_s"] = median(setups)
	for _, role := range sortedKeys(ph.series) {
		rep.series = append(rep.series, ph.series[role].summarize())
	}
	prim := ph.series[b.w.primary].summarize()
	rep.e2e["op_mean_ms"] = prim.Mean
	rateName, rate := b.w.rate(ph)
	rep.e2e["ops_per_s"] = rate
	rep.e2e["peak_rss_mb"] = ph.rssMB

	rep.named = append([]namedMetric{{"setup_s", rep.e2e["setup_s"], "s"}}, b.seriesMetrics(rep.series)...)
	rep.named = append(rep.named, namedMetric{b.w.primary + "_mean_ms", prim.Mean, "ms"})
	rep.named = append(rep.named,
		namedMetric{rateName, rate, "1/s"},
		namedMetric{"peak_rss_mb", ph.rssMB, "MB"},
		namedMetric{"failed_frac", ratio(float64(rep.acct.failed), float64(rep.acct.attempted)), "ratio"})
	rep.named = append(rep.named, named...)
	b.layerCounts(ph, rep)
	return rep, nil
}

// seriesMetrics names every latency series' median and tail the way the
// workload reports them (<role>_p50_ms, <role>_tail_ms).
func (b *bench) seriesMetrics(ss []summary) []namedMetric {
	var out []namedMetric
	for _, s := range ss {
		if _, fixed := b.w.tails[s.Name]; !fixed {
			continue
		}
		out = append(out,
			namedMetric{s.Name + "_p50_ms", s.P50, "ms"},
			namedMetric{s.Name + "_tail_ms", s.Tail, "ms"})
	}
	return out
}

// timed drives the workload for the configured time and brackets it
// with /metrics scrapes and CPU readings.
func (b *bench) timed() (*phase, error) {
	n := conns
	ph := &phase{series: map[string]*series{}, records: make([][]record, n)}
	var err error
	if ph.before, err = b.c.scrape(); err != nil {
		return nil, err
	}
	pid := strconv.Itoa(b.d.pid())
	cpuD0, err1 := cpuSeconds(pid)
	cpuC0, err2 := cpuSeconds("self")
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("cpu time: %v %v", err1, err2)
	}

	dur := time.Duration(b.cfg.seconds * float64(time.Second))
	accts := make([]acct, n)
	lates := make([][]float64, n)
	samples := make([]map[string][]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < n; c++ {
		samples[c] = map[string][]float64{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			open := c == 0 && b.w.interval > 0
			for i := 0; ; i++ {
				var due time.Time
				if open {
					due = start.Add(time.Duration(i) * b.w.interval)
					if !due.Before(deadline) {
						return
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					lates[c] = append(lates[c], ms(time.Since(due)))
				} else if !time.Now().Before(deadline) {
					return
				}
				o := b.w.next(c, i)
				rec := send(b.c, &accts[c], o)
				ph.records[c] = append(ph.records[c], rec)
				if o.role == "" || rec.err != nil {
					continue
				}
				lat := rec.latency
				if open {
					lat = time.Since(due) // open loop: from when it was due
				}
				samples[c][o.role] = append(samples[c][o.role], ms(lat))
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)

	cpuD1, err1 := cpuSeconds(pid)
	cpuC1, err2 := cpuSeconds("self")
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("cpu time: %v %v", err1, err2)
	}
	ph.daemonCPU, ph.clientCPU = cpuD1-cpuD0, cpuC1-cpuC0
	if ph.rssMB, err = peakRSSMB(b.d.pid()); err != nil {
		return nil, err
	}
	if ph.after, err = b.c.scrape(); err != nil {
		return nil, err
	}
	for c := range accts {
		b.acct.merge(&accts[c])
		ph.late = append(ph.late, lates[c]...)
		for role, xs := range samples[c] {
			s := ph.series[role]
			if s == nil {
				s = &series{name: role, tail: b.w.tails[role]}
				if s.tail == 0 {
					s.tail = 0.99
				}
				ph.series[role] = s
			}
			s.samples = append(s.samples, xs...)
		}
	}
	if ph.series[b.w.primary] == nil || len(ph.series[b.w.primary].samples) == 0 {
		return nil, fmt.Errorf("no successful %s operation in %v", b.w.primary, dur)
	}
	return ph, nil
}

// restart stops the daemon with sig and starts it again over the same
// state, waiting until /readyz answers 200.
func (b *bench) restart(sig syscall.Signal) error {
	if err := b.d.stop(sig); err != nil {
		return err
	}
	if err := b.d.start(); err != nil {
		return err
	}
	return b.d.waitOK(b.c.hc, b.c.base+"/readyz", 120*time.Second)
}

// byScenario groups the initial fleet's and the timed phase's records
// per scenario, each in the order it was sent.
func (b *bench) byScenario(ph *phase) [][]record {
	idx := map[string]int{}
	var out [][]record
	add := func(r record) {
		i, ok := idx[r.op.sc]
		if !ok {
			i = len(out)
			idx[r.op.sc] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], r)
	}
	for _, r := range b.fleetRecs {
		add(r)
	}
	for _, rs := range ph.records {
		for _, r := range rs {
			add(r)
		}
	}
	return out
}

// replay runs the in-process replay: with tracing off, the reference the
// daemon's answers are checked against; with tracing on, an untraced
// and a traced replay, whose wall times give the tracing overhead and
// whose spans give the per-layer times.
func (b *bench) replay(ph *phase, rep *runReport) error {
	compare := b.w.compare
	if compare == nil {
		if !b.cfg.trace {
			return nil
		}
		compare = func(*op) bool { return false }
	} else {
		rep.fidelity = "replay"
	}
	groups := b.byScenario(ph)
	workers := conns
	if b.cfg.trace {
		workers = 1
	}
	ref, err := replayAll(groups, nil, workers, compare)
	if err != nil {
		return err
	}
	b.mismatches += ref.mismatches
	for _, m := range ref.msgs {
		b.acct.note("fidelity: " + m)
	}
	if !b.cfg.trace {
		return nil
	}
	tr := newRecorder()
	traced, err := replayAll(groups, tr, 1, compare)
	if err != nil {
		return err
	}
	// Both replays are checked; a program that answers differently from
	// run to run can mismatch in one and not the other.
	if traced.mismatches > ref.mismatches {
		b.mismatches += traced.mismatches - ref.mismatches
		for _, m := range traced.msgs {
			b.acct.note("fidelity (traced): " + m)
		}
	}
	b.layerTimes(ph, tr, ref, traced)
	name := fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.cfg.seed)
	return tr.write(filepath.Join(b.cfg.workdir, name))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
