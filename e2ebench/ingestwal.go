package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/wal"
	"vnfopt/internal/workload"
)

// ingestWAL drives 64 small scenarios behind a write-ahead log with no
// solver work: connection 0 is an open loop of 250 operations per
// second — per-call /rates of 8 updates, one snapshot read after every
// third call, and a /step every 32nd operation; connection 1 streams
// bulk NDJSON batches of 64k updates. The offered rate keeps connection
// 0 about a third busy, so its latency shows the daemon's service time
// and mailbox sharing rather than the client's own queue. Afterwards the
// daemon is killed and restarted over the same log, and every
// acknowledged update must have survived.
//
// The headline operation is the bulk stream: a 64k-update request spans
// decode, mailbox, WAL append and Ingest many times over, so its latency
// is steady from run to run, while a per-call request is short enough
// that CPU scheduling next to the saturating bulk stream dominates it.
// Per-call and read latencies are still reported by name.
func ingestWAL(seed int64, tiny bool) (*workloadDef, error) {
	const (
		nsc     = 64
		flows   = 40
		perCall = 8
		pool    = 512
	)
	bulkN, bodies, cycles, tailBulk := 64<<10, 8, 3, 8
	if tiny {
		bulkN, bodies, cycles, tailBulk = 4<<10, 2, 1, 2
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 7)))
	randomUpdates := func(n int) []engine.RateUpdate {
		ups := make([]engine.RateUpdate, n)
		for i := range ups {
			ups[i] = engine.RateUpdate{Flow: rng.Intn(flows), Rate: workload.Rate(rng)}
		}
		return ups
	}
	iw := &ingest{nsc: nsc, flows: flows, cycles: cycles, tailBulk: tailBulk}
	for s := 0; s < nsc; s++ {
		iw.ids = append(iw.ids, fmt.Sprintf("w%02d", s))
	}
	for i := 0; i < pool; i++ {
		ups := randomUpdates(perCall)
		iw.calls = append(iw.calls, callBody{ups, ratesBody(ups, false)})
	}
	for i := 0; i < bodies; i++ {
		ups := randomUpdates(bulkN)
		iw.bulks = append(iw.bulks, callBody{ups, ndjson(ups)})
	}
	iw.rng = rand.New(rand.NewSource(subSeed(seed, 8)))
	w := &workloadDef{
		name: "ingest-wal", reps: 7,
		args: func(state string) []string {
			return []string{"-wal", filepath.Join(state, "wal"), "-wal-sync", "interval", "-snapshot", filepath.Join(state, "snapshot.json")}
		},
		interval: 4 * time.Millisecond,
		primary:  "bulk",
		tails:    map[string]float64{"bulk": 0.9, "rates": 0.99, "read": 0.9},
		rate: func(ph *phase) (string, float64) {
			return "ingest_updates_per_s", float64(acked(ph.all()).updates) / ph.wall.Seconds()
		},
		after: iw.recover,
	}
	for s := 0; s < nsc; s++ {
		w.fleet = append(w.fleet, createOp(&scenarioSpec{ID: iw.ids[s], K: 4, SFCLen: 3, Mu: 1000, Flows: flows, TenantRacks: 4,
			Seed: subSeed(seed, 9, s), Migrator: "nomigration"}))
	}
	w.next = func(c, i int) *op {
		if c == 1 {
			b := iw.bulks[i%len(iw.bulks)]
			return &op{kind: opBulk, sc: iw.ids[i%nsc], updates: b.updates, body: b.body, role: "bulk"}
		}
		switch {
		case i%32 == 31:
			return &op{kind: opStep, sc: iw.ids[(i/32)%nsc], role: "step"}
		case i%4 == 3:
			return &op{kind: opPlacement, sc: iw.ids[(i*7)%nsc], role: "read"}
		default:
			b := iw.calls[i%pool]
			return &op{kind: opRates, sc: iw.ids[i%nsc], updates: b.updates, body: b.body, role: "rates"}
		}
	}
	return w, nil
}

// callBody is a pre-encoded request and the updates it carries.
type callBody struct {
	updates []engine.RateUpdate
	body    []byte
}

// ingest is the ingest-wal workload's state for its recovery phase.
type ingest struct {
	nsc, flows       int
	cycles, tailBulk int
	ids              []string
	calls, bulks     []callBody
	rng              *rand.Rand
}

// ackCount is what the daemon acknowledged to one scenario: updates
// accepted and epochs closed.
type ackCount struct{ updates, steps int }

// acked totals the acknowledged work in a set of records.
func acked(recs []record) (total ackCount) {
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		total.updates += len(r.op.updates)
		if r.op.kind == opStep || r.op.step {
			total.steps++
		}
	}
	return total
}

// stateJSON is the part of GET …/state the durability check reads.
type stateJSON struct {
	Epoch   int       `json:"epoch"`
	Rates   []float64 `json:"rates"`
	Metrics struct {
		UpdatesAccepted int `json:"updates_accepted"`
	} `json:"metrics"`
}

// recover is the kill/restart phase. A graceful restart first snapshots
// and compacts the log, so each crash cycle replays only its own tail:
// tailBulk bulk streams, then one /rates call per scenario covering
// every flow, then a step per scenario. The daemon is then SIGKILLed and
// restarted over the same state; recovery_s is the median time from the
// kill until /v1 answers 200. Every scenario's recovered state must hold
// exactly the acknowledged epochs, update count and last rates.
func (iw *ingest) recover(b *bench, ph *phase) ([]namedMetric, error) {
	want := map[string]*ackCount{}
	for _, id := range iw.ids {
		want[id] = &ackCount{}
	}
	for _, r := range append(append([]record(nil), b.fleetRecs...), ph.all()...) {
		if c := want[r.op.sc]; c != nil {
			a := acked([]record{r})
			c.updates += a.updates
			c.steps += a.steps
		}
	}
	if err := b.restart(syscall.SIGTERM); err != nil {
		return nil, err
	}
	var (
		recovery []float64
		replayed float64
		lost     int
		a        = &b.acct
	)
	for cycle := 0; cycle < iw.cycles; cycle++ {
		rates := map[string][]float64{}
		var tail []*op
		for j := 0; j < iw.tailBulk; j++ {
			bb := iw.bulks[j%len(iw.bulks)]
			tail = append(tail, &op{kind: opBulk, sc: iw.ids[(cycle*iw.tailBulk+j)%iw.nsc], updates: bb.updates, body: bb.body})
		}
		for _, id := range iw.ids {
			ups := make([]engine.RateUpdate, iw.flows)
			row := make([]float64, iw.flows)
			for f := range ups {
				row[f] = workload.Rate(iw.rng)
				ups[f] = engine.RateUpdate{Flow: f, Rate: row[f]}
			}
			rates[id] = row
			tail = append(tail, &op{kind: opRates, sc: id, updates: ups, step: true, body: ratesBody(ups, true)})
		}
		for _, o := range tail {
			if r := send(b.c, a, o); r.err == nil {
				c := want[o.sc]
				c.updates += len(o.updates)
				if o.step {
					c.steps++
				}
			}
		}
		t0 := time.Now()
		if err := b.d.stop(syscall.SIGKILL); err != nil {
			return nil, err
		}
		if b.cfg.trace && cycle == iw.cycles-1 {
			// Copy the crashed log for the in-process wal.Replay timing;
			// the restarted daemon may truncate and compact its own.
			if err := copyDir(filepath.Join(b.state, "wal"), filepath.Join(b.state, "wal-copy")); err != nil {
				return nil, err
			}
		}
		if err := b.d.start(); err != nil {
			return nil, err
		}
		if err := b.d.waitOK(b.c.hc, b.c.base+"/v1/scenarios?limit=1", 120*time.Second); err != nil {
			return nil, err
		}
		recovery = append(recovery, elapsedSince(t0))
		m, err := b.c.scrape()
		if err != nil {
			return nil, err
		}
		replayed = m.sum("vnfopt_wal_replayed_records_total")
		for _, id := range iw.ids {
			var st stateJSON
			if _, err := b.c.call(a, http.MethodGet, "/v1/scenarios/"+id+"/state", "", nil, &st); err != nil {
				continue
			}
			c := want[id]
			if st.Epoch != c.steps || st.Metrics.UpdatesAccepted != c.updates || !sameBits(st.Rates, rates[id]) {
				lost++
				a.note(fmt.Sprintf("durability: scenario %s after crash %d: epoch %d, %d updates; acknowledged %d and %d; rates equal: %v",
					id, cycle+1, st.Epoch, st.Metrics.UpdatesAccepted, c.steps, c.updates, sameBits(st.Rates, rates[id])))
			}
		}
		if cycle < iw.cycles-1 {
			if err := b.restart(syscall.SIGTERM); err != nil {
				return nil, err
			}
		}
	}
	b.mismatches += lost
	out := []namedMetric{
		{"recovery_s", median(recovery), "s"},
		{"lost_scenarios", float64(lost), "count"},
	}
	b.layer["wal.replayed_records"] = replayed
	if b.cfg.trace {
		sec, err := replayWAL(filepath.Join(b.state, "wal-copy"))
		if err != nil {
			return nil, err
		}
		b.layer["wal.replay_s"] = sec
	}
	return out, nil
}

// replayWAL opens and replays every scenario log under root in-process
// and returns the wall time.
func replayWAL(root string) (float64, error) {
	dirs, err := os.ReadDir(root)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		l, err := wal.Open(filepath.Join(root, d.Name()), wal.Options{Policy: wal.SyncOS})
		if err != nil {
			return 0, fmt.Errorf("wal %s: %w", d.Name(), err)
		}
		err = l.Replay(func(wal.Record) error { return nil })
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("wal %s: %w", d.Name(), err)
		}
	}
	return elapsedSince(start), nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
