package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/fault"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// scenarioSpec is the subset of the daemon's POST /v1/scenarios body the
// workloads use. Every field the daemon would default is set explicitly,
// so the in-process replay builds exactly what the daemon builds.
type scenarioSpec struct {
	ID          string                `json:"id"`
	K           int                   `json:"k"`
	SFCLen      int                   `json:"sfc_len"`
	Mu          float64               `json:"mu"`
	Pairs       []pairSpec            `json:"pairs,omitempty"`
	Flows       int                   `json:"flows,omitempty"`
	TenantRacks int                   `json:"tenant_racks,omitempty"`
	Seed        int64                 `json:"seed"`
	Migrator    string                `json:"migrator"`
	Routing     *engine.RoutingConfig `json:"routing,omitempty"`
}

// pairSpec is one explicit flow: host indices into the fabric's host
// list, and the initial rate.
type pairSpec struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Rate float64 `json:"rate"`
}

// generatedBase reproduces the flows the daemon generates for a spec
// without explicit pairs: clustered endpoints, then one rate per flow,
// from one rng seeded with the spec's seed.
func generatedBase(topo *topology.Topology, sp *scenarioSpec) (model.Workload, error) {
	rng := rand.New(rand.NewSource(sp.Seed))
	base, err := workload.PairsClustered(topo, sp.Flows, sp.TenantRacks, workload.DefaultIntraRack, rng)
	if err != nil {
		return nil, err
	}
	for i := range base {
		base[i].Rate = workload.Rate(rng)
	}
	return base, nil
}

// explicitBase maps a spec's host-index pairs onto fabric vertices.
func explicitBase(topo *topology.Topology, pairs []pairSpec) model.Workload {
	base := make(model.Workload, len(pairs))
	for i, p := range pairs {
		base[i] = model.VMPair{Src: topo.Hosts[p.Src], Dst: topo.Hosts[p.Dst], Rate: p.Rate}
	}
	return base
}

// opKind is one daemon route the workloads drive.
type opKind uint8

const (
	opCreate    opKind = iota // POST /v1/scenarios
	opRates                   // POST …/rates (optionally closing the epoch)
	opBulk                    // POST …/rates:bulk, NDJSON
	opStep                    // POST …/step
	opFaults                  // POST …/faults
	opPlacement               // GET …/placement
	opDelete                  // DELETE /v1/scenarios/{id}
)

// op is one generated operation: what the daemon receives over HTTP
// (body) and what the in-process replay feeds the same layers (spec,
// updates, faults).
type op struct {
	kind    opKind
	sc      string
	spec    *scenarioSpec
	updates []engine.RateUpdate
	step    bool
	inject  []fault.Fault
	heal    []fault.Fault
	body    []byte
	// role names the latency series the operation is sampled into
	// ("" for none).
	role string
}

// outcome is the part of an answer the fidelity checks compare.
type outcome struct {
	epoch     int
	total     float64
	placement []int
	moves     int
	routed    bool
	admitted  int
	rejected  int
	drained   int
}

// same reports whether two outcomes agree exactly (costs bitwise).
func (o outcome) same(p outcome) bool {
	return o.epoch == p.epoch && math.Float64bits(o.total) == math.Float64bits(p.total) &&
		slices.Equal(o.placement, p.placement) && o.moves == p.moves &&
		o.routed == p.routed && o.admitted == p.admitted && o.rejected == p.rejected
}

func (o outcome) String() string {
	return fmt.Sprintf("epoch %d total %s placement %v moves %d admitted %d/%d",
		o.epoch, strconv.FormatFloat(o.total, 'g', -1, 64), o.placement, o.moves, o.admitted, o.admitted+o.rejected)
}

// record is one executed operation: what was sent, what came back, and
// how long it took over HTTP.
type record struct {
	op      *op
	out     outcome
	latency time.Duration
	err     error
}

// stepJSON is the daemon's StepResult (plus queue_drained on /step).
type stepJSON struct {
	Epoch     int     `json:"epoch"`
	TotalCost float64 `json:"total_cost"`
	Moves     int     `json:"moves"`
	Placement []int   `json:"placement"`
	Routing   *struct {
		Admitted int `json:"admitted"`
		Rejected int `json:"rejected"`
	} `json:"routing"`
	QueueDrained int `json:"queue_drained"`
}

func (s *stepJSON) outcome() outcome {
	o := outcome{epoch: s.Epoch, total: s.TotalCost, placement: s.Placement, moves: s.Moves, drained: s.QueueDrained}
	if s.Routing != nil {
		o.routed, o.admitted, o.rejected = true, s.Routing.Admitted, s.Routing.Rejected
	}
	return o
}

// answerJSON decodes every answer shape the workloads receive.
type answerJSON struct {
	stepJSON
	Step     *stepJSON `json:"step"`
	Snapshot *struct {
		Placement []int `json:"placement"`
	} `json:"snapshot"`
	Repair *struct {
		Placement []int `json:"placement"`
		Moves     int   `json:"moves"`
	} `json:"repair"`
}

// mustJSON marshals a value the benchmark built itself.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// ratesBody encodes a /rates request.
func ratesBody(updates []engine.RateUpdate, step bool) []byte {
	return mustJSON(struct {
		Updates []engine.RateUpdate `json:"updates"`
		Step    bool                `json:"step"`
	}{updates, step})
}

// send executes one operation over HTTP and records its answer.
func send(c *client, a *acct, o *op) record {
	var (
		ans  answerJSON
		lat  time.Duration
		err  error
		path = "/v1/scenarios/" + o.sc
	)
	switch o.kind {
	case opCreate:
		lat, err = c.call(a, http.MethodPost, "/v1/scenarios", "application/json", o.body, &ans)
	case opRates:
		lat, err = c.call(a, http.MethodPost, path+"/rates", "application/json", o.body, &ans)
	case opBulk:
		lat, err = c.call(a, http.MethodPost, path+"/rates:bulk", "application/x-ndjson", o.body, nil)
	case opStep:
		lat, err = c.call(a, http.MethodPost, path+"/step", "", nil, &ans)
	case opFaults:
		lat, err = c.call(a, http.MethodPost, path+"/faults", "application/json", o.body, &ans)
	case opPlacement:
		lat, err = c.call(a, http.MethodGet, path+"/placement", "", nil, &ans)
	case opDelete:
		lat, err = c.call(a, http.MethodDelete, path, "", nil, nil)
	}
	r := record{op: o, latency: lat, err: err}
	switch {
	case err != nil:
	case o.kind == opCreate && ans.Snapshot != nil:
		r.out.placement = ans.Snapshot.Placement
	case o.kind == opRates && ans.Step != nil:
		r.out = ans.Step.outcome()
	case o.kind == opStep, o.kind == opPlacement:
		r.out = ans.stepJSON.outcome()
	case o.kind == opFaults && ans.Repair != nil:
		r.out = outcome{placement: ans.Repair.Placement, moves: ans.Repair.Moves}
	}
	return r
}
