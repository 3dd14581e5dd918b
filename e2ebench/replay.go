package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/fault"
	"vnfopt/internal/graph"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/placement"
	"vnfopt/internal/shard"
	"vnfopt/internal/topology"
)

// bulkBatch is the daemon's NDJSON fold size: a bulk stream reaches the
// engine as Ingest calls of this many updates.
const bulkBatch = 8192

// replayer executes operations in-process through the public functions
// of the layers the daemon composes: topology and model construction,
// engine.New (TOP), per-scenario shard actors, engine.Ingest/Step/
// ApplyFaults. With a recorder it traces every call; without one it is
// the untraced reference the fidelity checks compare the daemon to.
type replayer struct {
	tr  *recorder
	reg *obs.Registry // engine observers publish here (traced only)
	scn map[string]*replayScenario

	dirty    float64 // Σ dirty/vertices over APSP deltas inside engine calls
	deltas   int
	engineOp bool // an engine call (not the fault.view shadow) is running
}

// replayScenario is one hosted engine and the actor that serializes its
// commands, as in the daemon.
type replayScenario struct {
	eng      *engine.Engine
	actor    *shard.Actor
	pristine *model.PPDC
	view     *fault.View // shadow of the engine's fault view (traced only)
	faults   fault.FaultSet
	rebuild  *obs.Histogram
}

func newReplayer(tr *recorder) *replayer {
	r := &replayer{tr: tr, scn: map[string]*replayScenario{}}
	if tr != nil {
		r.reg = obs.NewRegistry()
	}
	return r
}

// observe installs the process-wide graph hooks for a traced replay and
// returns the function that removes them.
func (r *replayer) observe() func() {
	if r.tr == nil {
		return func() {}
	}
	graph.SetAPSPObserver(func(vertices, edges, workers int, elapsed time.Duration) {
		r.tr.done("graph.apsp_build", elapsed)
	})
	graph.SetAPSPDeltaObserver(func(kind graph.DeltaKind, vertices, dirty, workers int, elapsed time.Duration) {
		r.tr.done("graph.apsp_delta", elapsed)
		if r.engineOp && vertices > 0 {
			r.dirty += float64(dirty) / float64(vertices)
			r.deltas++
		}
	})
	return func() {
		graph.SetAPSPObserver(nil)
		graph.SetAPSPDeltaObserver(nil)
	}
}

// close stops every scenario actor still running.
func (r *replayer) close() {
	for _, s := range r.scn {
		s.actor.Close()
	}
}

// tracedPlacer spans the TOP solver call inside engine.New.
type tracedPlacer struct {
	inner placement.Solver
	tr    *recorder
}

func (p tracedPlacer) Name() string { return p.inner.Name() }

func (p tracedPlacer) Place(d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, error) {
	id := p.tr.begin("placement.top")
	defer p.tr.end(id)
	return p.inner.Place(d, w, sfc)
}

// tracedMigrator spans every TOM consult (epoch consults and repairs).
type tracedMigrator struct {
	inner migration.Migrator
	tr    *recorder
}

func (m tracedMigrator) Name() string { return m.inner.Name() }

func (m tracedMigrator) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	id := m.tr.begin("migration.consult")
	defer m.tr.end(id)
	return m.inner.Migrate(d, w, sfc, p, mu)
}

// build materializes a spec the way the daemon does: fabric, model (full
// APSP), flows, then engine.New with the TOP placer.
func (r *replayer) build(sp *scenarioSpec) (*replayScenario, error) {
	id := r.tr.begin("topology.build")
	topo, err := topology.FatTree(sp.K, nil)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = r.tr.begin("model.new")
	d, err := model.New(topo, model.Options{})
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	var base model.Workload
	if len(sp.Pairs) > 0 {
		base = explicitBase(topo, sp.Pairs)
	} else if base, err = generatedBase(topo, sp); err != nil {
		return nil, err
	}
	var mig migration.Migrator
	switch sp.Migrator {
	case "mpareto":
		mig = migration.MPareto{}
	case "nomigration":
		mig = migration.NoMigration{}
	default:
		return nil, fmt.Errorf("replay: migrator %q not used by any workload", sp.Migrator)
	}
	var placer placement.Solver = placement.DP{}
	cfg := engine.Config{PPDC: d, SFC: model.NewSFC(sp.SFCLen), Base: base, Mu: sp.Mu, Routing: sp.Routing}
	s := &replayScenario{pristine: d}
	if r.tr != nil {
		placer = tracedPlacer{placer, r.tr}
		mig = tracedMigrator{mig, r.tr}
		cfg.Observer = engine.NewObserver(r.reg, nil, sp.ID)
		s.rebuild = r.reg.Histogram(fmt.Sprintf("vnfopt_cache_rebuild_seconds{scenario=%q}", sp.ID))
	}
	cfg.Placer, cfg.Migrator = placer, mig
	id = r.tr.begin("engine.new")
	r.engineOp = true
	s.eng, err = engine.New(cfg)
	r.engineOp = false
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	s.actor = shard.NewActor(1024)
	return s, nil
}

// do runs fn as one command of the scenario's actor, as the daemon
// does, and records how long the command waited in the mailbox before
// it started.
func (r *replayer) do(s *replayScenario, fn func() error) error {
	t0 := time.Now()
	var err error
	if aerr := s.actor.Do(func() {
		r.tr.done("shard.mailbox_wait", time.Since(t0))
		err = fn()
	}); aerr != nil {
		return aerr
	}
	return err
}

// exec replays one operation and returns what the daemon should have
// answered.
func (r *replayer) exec(o *op) (outcome, error) {
	if o.kind == opCreate {
		s, err := r.build(o.spec)
		if err != nil {
			return outcome{}, err
		}
		r.scn[o.sc] = s
		return outcome{placement: s.eng.Snapshot().Placement}, nil
	}
	s := r.scn[o.sc]
	if s == nil {
		return outcome{}, fmt.Errorf("replay: no scenario %q", o.sc)
	}
	var (
		out outcome
		err error
	)
	switch o.kind {
	case opRates:
		// Ingest and the optional step are one command, as in the daemon.
		err = r.do(s, func() (err error) {
			if err = r.ingest(s, o.updates); err != nil || !o.step {
				return err
			}
			out, err = r.step(s)
			return err
		})
	case opBulk:
		for i := 0; i < len(o.updates) && err == nil; i += bulkBatch {
			batch := o.updates[i:min(i+bulkBatch, len(o.updates))]
			err = r.do(s, func() error { return r.ingest(s, batch) })
		}
	case opStep:
		err = r.do(s, func() (err error) {
			out, err = r.step(s)
			return err
		})
	case opFaults:
		err = r.do(s, func() (err error) {
			out, err = r.applyFaults(s, o)
			return err
		})
	case opPlacement:
		snap := s.eng.Snapshot()
		out = outcome{epoch: snap.Epoch, placement: snap.Placement}
		if snap.Routing != nil {
			out.routed, out.admitted, out.rejected = true, snap.Routing.Admitted, snap.Routing.Rejected
		}
	case opDelete:
		s.actor.Close()
		delete(r.scn, o.sc)
	}
	return out, err
}

func (r *replayer) ingest(s *replayScenario, updates []engine.RateUpdate) error {
	id := r.tr.begin("engine.ingest")
	defer r.tr.end(id)
	_, err := s.eng.Ingest(updates)
	return err
}

func (r *replayer) step(s *replayScenario) (outcome, error) {
	before := s.rebuild.Sum()
	id := r.tr.begin("engine.step")
	r.engineOp = true
	res, err := s.eng.Step()
	r.engineOp = false
	r.tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	r.tr.within(id, "model.cache_rebuild", time.Duration((s.rebuild.Sum()-before)*1e9))
	out := outcome{epoch: res.Epoch, total: res.TotalCost, placement: res.Placement, moves: res.Moves}
	if res.Routing != nil {
		out.routed, out.admitted, out.rejected = true, res.Routing.Admitted, res.Routing.Rejected
	}
	return out, nil
}

// applyFaults runs the topology event. A traced replay first times the
// fault layer on its own: it advances a shadow of the engine's view
// with the same incremental fault.ApplyDelta call the engine makes, so
// fault.view carries the view construction without the repair.
func (r *replayer) applyFaults(s *replayScenario, o *op) (outcome, error) {
	if r.tr != nil {
		next := s.faults
		for _, f := range o.inject {
			next = next.Add(f)
		}
		for _, f := range o.heal {
			next = next.Remove(f)
		}
		id := r.tr.begin("fault.view")
		view, err := fault.ApplyDelta(s.pristine, s.view, next)
		r.tr.end(id)
		if err != nil {
			return outcome{}, err
		}
		if next.Empty() {
			view = nil
		}
		s.view, s.faults = view, next
	}
	id := r.tr.begin("engine.apply_faults")
	r.engineOp = true
	res, err := s.eng.ApplyFaults(context.Background(), o.inject, o.heal)
	r.engineOp = false
	r.tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	if res.Repair == nil {
		return outcome{}, nil
	}
	return outcome{placement: res.Repair.Placement, moves: res.Repair.Moves}, nil
}

// replayResult is what one replay found and, when traced, measured
// outside its spans.
type replayResult struct {
	ops        int
	mismatches int
	msgs       []string
	wall       time.Duration
	// Traced only: engine-observer histogram totals, the mean dirty
	// share of incremental APSP updates inside engine calls, and the
	// replay's own allocation and GC work.
	consultSec, consults float64
	rebuildSec, rebuilds float64
	dirtyFrac            float64
	allocMB              float64
	gcCycles             float64
}

// replayAll replays each scenario's operations in order, comparing the
// outcome of every operation compare selects with the daemon's answer.
// Scenarios are independent, so the untraced reference spreads them over
// workers goroutines; a traced replay runs on one, because the graph
// hooks are process-wide.
func replayAll(perScenario [][]record, tr *recorder, workers int, compare func(o *op) bool) (*replayResult, error) {
	if tr != nil {
		workers = 1
	}
	res := &replayResult{}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
		next int
	)
	worker := func(rp *replayer) {
		defer wg.Done()
		for {
			mu.Lock()
			if next >= len(perScenario) {
				mu.Unlock()
				return
			}
			recs := perScenario[next]
			next++
			mu.Unlock()
			for _, rec := range recs {
				want, err := rp.exec(rec.op)
				mu.Lock()
				res.ops++
				if err != nil {
					errs = append(errs, fmt.Errorf("replay scenario %s: %w", rec.op.sc, err))
					mu.Unlock()
					break
				}
				if rec.err == nil && compare(rec.op) && !rec.out.same(want) {
					res.mismatches++
					if len(res.msgs) < 5 {
						res.msgs = append(res.msgs, fmt.Sprintf("scenario %s: daemon answered %v, in-process %v", rec.op.sc, rec.out, want))
					}
				}
				mu.Unlock()
			}
		}
	}
	reps := make([]*replayer, workers)
	reps[0] = newReplayer(tr)
	for i := 1; i < workers; i++ {
		reps[i] = newReplayer(nil)
	}
	unobserve := reps[0].observe()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, rp := range reps {
		wg.Add(1)
		go worker(rp)
	}
	wg.Wait()
	res.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	unobserve()
	for _, rp := range reps {
		rp.close()
	}
	if len(errs) > 0 {
		return res, errs[0]
	}
	if tr != nil {
		r := reps[0]
		var buf bytes.Buffer
		if err := r.reg.WritePrometheus(&buf); err != nil {
			return res, err
		}
		p, err := parseProm(&buf)
		if err != nil {
			return res, err
		}
		res.consultSec = p.sum("vnfopt_engine_consult_seconds_sum")
		res.consults = p.sum("vnfopt_engine_consult_seconds_count")
		res.rebuildSec = p.sum("vnfopt_cache_rebuild_seconds_sum")
		res.rebuilds = p.sum("vnfopt_cache_rebuild_seconds_count")
		res.dirtyFrac = ratio(r.dirty, float64(r.deltas))
		res.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		res.gcCycles = float64(m1.NumGC - m0.NumGC)
	}
	return res, nil
}
