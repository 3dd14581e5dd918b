package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/fault"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// workloadDef is one traffic mix. Inputs are generated from the seed
// when the workload is built; the daemon receives only the resulting
// specs, rates and faults.
type workloadDef struct {
	name string
	// reps is how many times set-up (daemon exec → /readyz 200 → initial
	// fleet created) is repeated; setup_s is their median.
	reps int
	// args returns the daemon's extra flags for a state directory (nil:
	// none).
	args func(state string) []string
	// fleet is the initial fleet, created during set-up.
	fleet []*op
	// interval > 0 makes connection 0 an open loop sending one operation
	// per interval; every other connection is a closed loop.
	interval time.Duration
	// next returns connection conn's i-th operation.
	next func(conn, i int) *op
	// primary is the latency series behind op_mean_ms.
	primary string
	// tails fixes each latency series' tail quantile (see tailQuantiles).
	tails map[string]float64
	// rate is the workload's throughput (ops_per_s) and its own name.
	rate func(ph *phase) (string, float64)
	// compare selects the operations whose answers must equal the
	// in-process replay's; nil means the replay checks nothing.
	compare func(o *op) bool
	// after runs extra phases once the timed phase is over and returns
	// named metrics; nil for none.
	after func(b *bench, ph *phase) ([]namedMetric, error)
	// routed reports whether the workload's scenarios run capacity
	// routing (sfcroute.route_ms is the step self time then).
	routed bool
}

var workloadCtors = map[string]func(seed int64, tiny bool) (*workloadDef, error){
	"day-tom":     dayTom,
	"ingest-wal":  ingestWAL,
	"fault-route": faultRoute,
	"fleet-churn": fleetChurn,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadCtors))
	for n := range workloadCtors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(name string, seed int64, tiny bool) (*workloadDef, error) {
	ctor, ok := workloadCtors[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
	}
	return ctor(seed, tiny)
}

// structureSeed fixes the scenario structure (flows, burst schedules) of
// the workloads whose cost depends on it; see dayTom.
const structureSeed = 20220530

// subSeed derives an independent, reproducible seed for one generated
// input (a scenario, a connection's stream, a lifecycle).
func subSeed(seed int64, parts ...int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, p := range parts {
		h ^= uint64(p) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
	}
	return int64(h >> 1)
}

func createOp(sp *scenarioSpec) *op {
	return &op{kind: opCreate, sc: sp.ID, spec: sp, body: mustJSON(sp)}
}

// countRole is the number of samples of one latency series.
func countRole(ph *phase, role string) float64 {
	if s := ph.series[role]; s != nil {
		return float64(len(s.samples))
	}
	return 0
}

// hostIndex maps fabric host vertices to the host indices the API takes.
func hostIndex(topo *topology.Topology) map[int]int {
	idx := make(map[int]int, len(topo.Hosts))
	for i, h := range topo.Hosts {
		idx[h] = i
	}
	return idx
}

// dayTom replays the paper's diurnal day (Eq. 9 envelope, east/west
// split, rack bursts) as epochs on four k=16 scenarios of 1000 flows
// from five tenant racks: each operation carries every flow's rate for
// the next hour and closes the epoch, and the day repeats. Connection c
// drives scenarios c and c+2 in turn, so each scenario's epochs reach
// the daemon in one order the replay can repeat.
//
// The scenarios are fixed: flows and the day's burst schedule come from
// structureSeed. The TOM loop is chaotic in its inputs — a different
// draw of tenant racks, or even a few percent of rate noise, changes
// which epochs migrate and so the epoch cost by tens of percent from
// seed to seed. The seed instead picks the hour each scenario's day
// starts at; a repeating day settles into the same daily cycle of
// placements whatever the start, so every seed measures the same work.
func dayTom(seed int64, tiny bool) (*workloadDef, error) {
	const nsc = 4
	k, flows := 16, 1000
	if tiny {
		k, flows = 4, 40
	}
	topo, err := topology.FatTree(k, nil)
	if err != nil {
		return nil, err
	}
	hidx := hostIndex(topo)
	w := &workloadDef{
		name: "day-tom", reps: 5,
		primary: "epoch",
		tails:   map[string]float64{"epoch": 0.99},
		rate:    func(ph *phase) (string, float64) { return "epochs_per_s", countRole(ph, "epoch") / ph.wall.Seconds() },
		compare: func(o *op) bool { return o.kind == opCreate || o.step },
	}
	day := make([][]*op, nsc)
	start := make([]int, nsc)
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	for s := 0; s < nsc; s++ {
		srng := rand.New(rand.NewSource(structureSeed + int64(s)))
		base, err := workload.PairsClustered(topo, flows, 5, workload.DefaultIntraRack, srng)
		if err != nil {
			return nil, err
		}
		sched, err := workload.PaperBurst().Schedule(topo, base, srng)
		if err != nil {
			return nil, err
		}
		start[s] = rng.Intn(len(sched))
		sp := &scenarioSpec{ID: "d" + strconv.Itoa(s), K: k, SFCLen: 5, Mu: 1e4, Migrator: "mpareto"}
		prev := sched[(start[s]+len(sched)-1)%len(sched)]
		for i, f := range base {
			sp.Pairs = append(sp.Pairs, pairSpec{Src: hidx[f.Src], Dst: hidx[f.Dst], Rate: prev[i]})
		}
		w.fleet = append(w.fleet, createOp(sp))
		for _, row := range sched {
			ups := make([]engine.RateUpdate, len(row))
			for i, r := range row {
				ups[i] = engine.RateUpdate{Flow: i, Rate: r}
			}
			day[s] = append(day[s], &op{kind: opRates, sc: sp.ID, updates: ups, step: true, body: ratesBody(ups, true), role: "epoch"})
		}
	}
	w.next = func(c, i int) *op {
		s := c + conns*(i%(nsc/conns))
		return day[s][(start[s]+i/(nsc/conns))%len(day[s])]
	}
	return w, nil
}

// faultRoute cycles topology events through two routed k=8 scenarios:
// inject one fault, perturb rates and close the epoch, heal it, perturb
// and close again. As in dayTom the scenarios' flows are fixed (a routed
// epoch's cost depends on them); the seed draws the fault sequence,
// degrade factors and rate perturbations.
//
// BENCHMARK.json does not list this workload while its fidelity check
// fails: sfcroute.Router.Admit picks the link to block among links
// overloaded by the same amount in map iteration order, so two runs of
// the same operations admit different flow counts (the in-process
// replay differs from itself, with no daemon involved).
func faultRoute(seed int64, tiny bool) (*workloadDef, error) {
	k, flows, capacity := 8, 400, 6e5
	if tiny {
		k, flows, capacity = 4, 40, 1e5
	}
	topo, err := topology.FatTree(k, nil)
	if err != nil {
		return nil, err
	}
	// Switch–switch links and switches are the fault targets.
	isSwitch := make([]bool, topo.Graph.Order())
	for _, s := range topo.Switches {
		isSwitch[s] = true
	}
	var links [][2]int
	for _, e := range topo.Graph.Edges() {
		if isSwitch[e.U] && isSwitch[e.V] {
			links = append(links, [2]int{e.U, e.V})
		}
	}
	w := &workloadDef{
		name: "fault-route", reps: 9, routed: true,
		primary: "fault",
		tails:   map[string]float64{"fault": 0.9, "epoch": 0.9},
		rate:    func(ph *phase) (string, float64) { return "epochs_per_s", countRole(ph, "epoch") / ph.wall.Seconds() },
		compare: func(o *op) bool { return o.kind == opCreate || o.kind == opStep || o.kind == opFaults },
	}
	const cycles = 64
	ops := make([][]*op, conns)
	for c := 0; c < conns; c++ {
		sp := &scenarioSpec{ID: "f" + strconv.Itoa(c), K: k, SFCLen: 3, Mu: 1000, Flows: flows, TenantRacks: 4,
			Seed: structureSeed + int64(c), Migrator: "mpareto",
			Routing: &engine.RoutingConfig{LinkCapacity: capacity, Alpha: 0.5}}
		base, err := generatedBase(topo, sp)
		if err != nil {
			return nil, err
		}
		w.fleet = append(w.fleet, createOp(sp))
		rng := rand.New(rand.NewSource(subSeed(seed, 3, c)))
		perturb := func() *op {
			ups := make([]engine.RateUpdate, 0, flows/20)
			for _, f := range rng.Perm(flows)[:flows/20] {
				ups = append(ups, engine.RateUpdate{Flow: f, Rate: base[f].Rate * (0.9 + 0.2*rng.Float64())})
			}
			return &op{kind: opRates, sc: sp.ID, updates: ups, body: ratesBody(ups, false)}
		}
		for j := 0; j < cycles; j++ {
			// The kinds rotate, so every seed injects the same mix; the
			// seed picks the targets and degrade factors.
			var f fault.Fault
			switch j % 3 {
			case 0:
				l := links[rng.Intn(len(links))]
				f = fault.Fault{Kind: fault.Degrade, U: l[0], V: l[1], Factor: float64(2 + rng.Intn(7))}
			case 1:
				l := links[rng.Intn(len(links))]
				f = fault.Fault{Kind: fault.Link, U: l[0], V: l[1]}
			default:
				f = fault.Fault{Kind: fault.Switch, U: topo.Switches[rng.Intn(len(topo.Switches))]}
			}
			heal := fault.Fault{Kind: f.Kind, U: f.U, V: f.V}
			ops[c] = append(ops[c],
				faultOp(sp.ID, []fault.Fault{f}, nil), perturb(), &op{kind: opStep, sc: sp.ID, role: "epoch"},
				faultOp(sp.ID, nil, []fault.Fault{heal}), perturb(), &op{kind: opStep, sc: sp.ID, role: "epoch"})
		}
	}
	w.next = func(c, i int) *op { return ops[c][i%len(ops[c])] }
	return w, nil
}

func faultOp(sc string, inject, heal []fault.Fault) *op {
	body := mustJSON(struct {
		Inject []fault.Fault `json:"inject,omitempty"`
		Heal   []fault.Fault `json:"heal,omitempty"`
	}{inject, heal})
	return &op{kind: opFaults, sc: sc, inject: inject, heal: heal, body: body, role: "fault"}
}

// fleetChurn runs whole scenario lifecycles next to a standing fleet of
// two scenarios of the same shape: create a k=16 fabric with 1000
// generated flows (fresh flow seed each time), ingest one rates batch
// and close the epoch, read the placement, delete.
func fleetChurn(seed int64, tiny bool) (*workloadDef, error) {
	k, flows := 16, 1000
	if tiny {
		k, flows = 4, 40
	}
	spec := func(id string, s int64) *scenarioSpec {
		return &scenarioSpec{ID: id, K: k, SFCLen: 5, Mu: 1e4, Flows: flows, TenantRacks: 5, Seed: s, Migrator: "mpareto"}
	}
	w := &workloadDef{
		name: "fleet-churn", reps: 5,
		primary: "create",
		tails:   map[string]float64{"create": 0.9},
		rate: func(ph *phase) (string, float64) {
			return "lifecycles_per_s", countRole(ph, "create") / ph.wall.Seconds()
		},
		compare: func(o *op) bool { return o.kind != opDelete },
	}
	for s := 0; s < 2; s++ {
		w.fleet = append(w.fleet, createOp(spec("base"+strconv.Itoa(s), subSeed(seed, 4, s))))
	}
	w.next = func(c, i int) *op {
		n := i / 4
		id := fmt.Sprintf("c%d-%d", c, n)
		switch i % 4 {
		case 0:
			o := createOp(spec(id, subSeed(seed, 5, c, n)))
			o.role = "create"
			return o
		case 1:
			rng := rand.New(rand.NewSource(subSeed(seed, 6, c, n)))
			ups := make([]engine.RateUpdate, flows/10)
			for j := range ups {
				ups[j] = engine.RateUpdate{Flow: rng.Intn(flows), Rate: workload.Rate(rng)}
			}
			return &op{kind: opRates, sc: id, updates: ups, step: true, body: ratesBody(ups, true)}
		case 2:
			return &op{kind: opPlacement, sc: id}
		default:
			return &op{kind: opDelete, sc: id}
		}
	}
	return w, nil
}

// ndjson encodes updates as an NDJSON bulk body of array-chunk lines.
func ndjson(updates []engine.RateUpdate) []byte {
	const chunk = 1000
	var buf bytes.Buffer
	for i := 0; i < len(updates); i += chunk {
		buf.Write(mustJSON(updates[i:min(i+chunk, len(updates))]))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
