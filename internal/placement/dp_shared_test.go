package placement_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/stroll"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// freshDP is the per-call Algorithm 3 that DP.Place replaced, kept as
// the oracle for the shared tables: a fresh closure copy from the APSP
// and a fresh Algorithm 2 table per egress on every call. Same loop
// order, pruning bounds and tie-breaks as DP.Place; n ≥ 3 only.
func freshDP(maxEdges int, d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, error) {
	n := sfc.Len()
	in, eg := d.NewWorkloadCache(w).EndpointCosts()
	sw := d.Topo.Switches
	cost := d.APSP.CostMatrix(sw)
	lambda := w.TotalRate()
	bestCost := math.Inf(1)
	var best model.Placement
	if p, c, err := (placement.Steering{}).Place(d, w, sfc); err == nil {
		best, bestCost = p, c
	}
	minEdge := math.Inf(1)
	for i := range cost {
		for j := range cost[i] {
			if i != j && cost[i][j] < minEdge {
				minEdge = cost[i][j]
			}
		}
	}
	minIn := math.Inf(1)
	for _, v := range sw {
		if in[v] < minIn {
			minIn = in[v]
		}
	}
	chainLB := lambda * float64(n-1) * minEdge
	egOrder := make([]int, len(sw))
	for i := range egOrder {
		egOrder[i] = i
	}
	sort.Slice(egOrder, func(x, y int) bool { return eg[sw[egOrder[x]]] < eg[sw[egOrder[y]]] })
	inOrder := append([]int(nil), egOrder...)
	sort.Slice(inOrder, func(x, y int) bool { return in[sw[inOrder[x]]] < in[sw[inOrder[y]]] })
	for _, tj := range egOrder {
		egT := eg[sw[tj]]
		if egT+minIn+chainLB >= bestCost {
			break
		}
		var tb *stroll.DPTable
		for _, sj := range inOrder {
			if sj == tj {
				continue
			}
			if in[sw[sj]]+egT+chainLB >= bestCost {
				break
			}
			if tb == nil {
				tb = stroll.NewDPTable(cost, tj)
			}
			res, err := tb.Stroll(sj, n-2, maxEdges)
			if err != nil {
				return nil, 0, err
			}
			if cand := in[sw[sj]] + egT + lambda*res.Cost; cand < bestCost {
				p := model.Placement{sw[sj]}
				for _, v := range res.Visited {
					p = append(p, sw[v])
				}
				bestCost, best = cand, append(p, sw[tj])
			}
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("no placement")
	}
	return best, d.CommCost(w, best), nil
}

// assertMatchesFresh runs DP.Place and the fresh-table oracle on one
// query and demands the same placement, the same cost bits and the same
// error.
func assertMatchesFresh(t *testing.T, tag string, maxEdges int, d *model.PPDC, w model.Workload, sfc model.SFC) {
	t.Helper()
	p, c, err := placement.DP{MaxEdges: maxEdges}.Place(d, w, sfc)
	wp, wc, werr := freshDP(maxEdges, d, w, sfc)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, fresh tables %v", tag, err, werr)
	}
	if !p.Equal(wp) || math.Float64bits(c) != math.Float64bits(wc) {
		t.Fatalf("%s: shared tables %v @ %v, fresh tables %v @ %v", tag, p, c, wp, wc)
	}
}

// randomRates gives every flow a fresh rate in [0.5, 100).
func randomRates(w model.Workload, rng *rand.Rand) model.Workload {
	rates := make([]float64, len(w))
	for i := range rates {
		rates[i] = 0.5 + 99.5*rng.Float64()
	}
	return w.WithRates(rates)
}

func sharedTableFixtures(t *testing.T) map[string]*topology.Topology {
	t.Helper()
	jf, err := topology.Jellyfish(24, 4, 2, topology.PaperDelay(rand.New(rand.NewSource(7))), rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	ls, err := topology.LeafSpine(6, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Topology{
		"fat-tree-k4":        topology.MustFatTree(4, nil),
		"fat-tree-k8":        topology.MustFatTree(8, nil),
		"leaf-spine":         ls,
		"jellyfish-weighted": jf,
	}
}

// TestDPSharedTablesMatchFresh: over random workloads, SFC lengths 3–7
// mixed on one fabric and several edge budgets, DP.Place on the shared
// tables is bitwise the fresh-table oracle, whatever the tables served
// before.
func TestDPSharedTablesMatchFresh(t *testing.T) {
	for name, topo := range sharedTableFixtures(t) {
		t.Run(name, func(t *testing.T) {
			d := model.MustNew(topo, model.Options{})
			rng := rand.New(rand.NewSource(int64(len(name))))
			base := workload.MustPairs(topo, 24, workload.DefaultIntraRack, rng)
			for q := 0; q < 24; q++ {
				n := 3 + rng.Intn(5)
				// 0 is the solver default; n-1 is the smallest budget
				// that admits an (n−2)-stroll.
				maxEdges := []int{0, n - 1, n, n + 3, 2 * n}[rng.Intn(5)]
				w := randomRates(base, rng)
				assertMatchesFresh(t, fmt.Sprintf("query %d n=%d maxEdges=%d", q, n, maxEdges), maxEdges, d, w, model.NewSFC(n))
			}
		})
	}
}

// TestDPSharedTablesFaultLiterals: the fault package's two literal
// PPDCs — the degraded view (its own APSP) and the region plan (the
// degraded APSP, fewer switches) — each match the oracle after the
// pristine PPDC has warmed the shared tables, and each answers from a
// closure over its own switch list.
func TestDPSharedTablesFaultLiterals(t *testing.T) {
	topo := topology.MustFatTree(4, nil)
	d := model.MustNew(topo, model.Options{})
	rng := rand.New(rand.NewSource(3))
	w := workload.MustPairs(topo, 24, workload.DefaultIntraRack, rng)
	sfc := model.NewSFC(4)
	assertMatchesFresh(t, "pristine", 0, d, w, sfc)

	// Both aggregation switches of pod 0 fail: its two edge switches
	// (and their hosts) become islands, so the plan's region excludes
	// them and the plan narrows the switch list.
	v, err := fault.Apply(d, fault.NewFaultSet(fault.Fault{Kind: fault.Switch, U: 4}, fault.Fault{Kind: fault.Switch, U: 5}))
	if err != nil {
		t.Fatal(err)
	}
	plan := v.PlanService(w)
	if len(plan.PPDC.Topo.Switches) >= len(v.PPDC().Topo.Switches) {
		t.Fatalf("fixture: plan keeps %d of %d degraded switches, want fewer", len(plan.PPDC.Topo.Switches), len(v.PPDC().Topo.Switches))
	}
	for _, c := range []struct {
		name string
		d    *model.PPDC
		w    model.Workload
	}{{"degraded", v.PPDC(), plan.Served}, {"region-plan", plan.PPDC, plan.Served}} {
		for q := 0; q < 6; q++ {
			assertMatchesFresh(t, fmt.Sprintf("%s query %d", c.name, q), 0, c.d, randomRates(c.w, rng), model.NewSFC(3+q%3))
		}
		if got := c.d.SwitchClosure().Switches; !slices.Equal(got, c.d.Topo.Switches) {
			t.Fatalf("%s: closure over %v, PPDC switches %v", c.name, got, c.d.Topo.Switches)
		}
	}
}

// TestDPSharedTablesConcurrent: 16 goroutines place on PPDCs from
// separate model.New calls of one topology. Every result is identical,
// and every target's table is built once — as many tables as one
// private, sequential run builds.
func TestDPSharedTablesConcurrent(t *testing.T) {
	// A fabric no other test in this package builds, so its tables
	// start cold.
	topo, err := topology.LeafSpine(7, 4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.MustPairs(topo, 30, workload.DefaultIntraRack, rand.New(rand.NewSource(11)))
	sfc := model.NewSFC(5)

	ref := model.MustNew(topo, model.Options{})
	built0, _ := stroll.TableStats()
	private := &model.PPDC{Topo: ref.Topo, APSP: ref.APSP}
	wantP, wantC, err := placement.DP{}.Place(private, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	built1, queries1 := stroll.TableStats()
	wantBuilt := built1 - built0

	const workers = 16
	ps := make([]model.Placement, workers)
	cs := make([]float64, workers)
	ds := make([]*model.PPDC, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds[i] = model.MustNew(topo, model.Options{})
			ps[i], cs[i], _ = placement.DP{}.Place(ds[i], w, sfc)
		}(i)
	}
	wg.Wait()
	for i := range ps {
		if !ps[i].Equal(wantP) || math.Float64bits(cs[i]) != math.Float64bits(wantC) {
			t.Fatalf("worker %d: %v @ %v, want %v @ %v", i, ps[i], cs[i], wantP, wantC)
		}
		if ds[i].SwitchClosure() != ref.SwitchClosure() {
			t.Fatalf("worker %d: its PPDC does not share the fabric's closure", i)
		}
	}
	built2, queries2 := stroll.TableStats()
	if built2-built1 != wantBuilt {
		t.Fatalf("%d tables built across %d concurrent places, want %d (one per target)", built2-built1, workers, wantBuilt)
	}
	if queries2 == queries1 {
		t.Fatal("no stroll query reached the shared tables")
	}
}

// TestDPSharedTablesCounts pins the host-stable table counts: a
// repeated Place builds nothing, a second model.New of equal content
// reuses the first one's tables, and the restricted-switch region plan
// builds its own.
func TestDPSharedTablesCounts(t *testing.T) {
	topo := topology.MustFatTree(4, topology.UniformDelay(1.5, 0.5, rand.New(rand.NewSource(21))))
	d := model.MustNew(topo, model.Options{})
	w := workload.MustPairs(topo, 16, workload.DefaultIntraRack, rand.New(rand.NewSource(22)))
	sfc := model.NewSFC(5)

	built0, queries0 := stroll.TableStats()
	if _, _, err := (placement.DP{}).Place(d, w, sfc); err != nil {
		t.Fatal(err)
	}
	built1, queries1 := stroll.TableStats()
	if built1 == built0 || queries1 == queries0 {
		t.Fatalf("first Place: %d tables, %d queries; want both > 0", built1-built0, queries1-queries0)
	}
	if _, _, err := (placement.DP{}).Place(d, w, sfc); err != nil {
		t.Fatal(err)
	}
	if built2, queries2 := stroll.TableStats(); built2 != built1 || queries2 == queries1 {
		t.Fatalf("repeated Place: %d new tables, %d queries; want none and some", built2-built1, queries2-queries1)
	}

	clone := *topo
	clone.Graph = topo.Graph.Clone()
	d2 := model.MustNew(&clone, model.Options{})
	if d2.SwitchClosure() != d.SwitchClosure() {
		t.Fatal("second model.New of equal content got its own closure")
	}
	if _, _, err := (placement.DP{}).Place(d2, w, sfc); err != nil {
		t.Fatal(err)
	}
	if built, _ := stroll.TableStats(); built != built1 {
		t.Fatalf("Place on an equal fabric built %d new tables, want 0", built-built1)
	}

	v, err := fault.Apply(d, fault.NewFaultSet(fault.Fault{Kind: fault.Switch, U: 4}, fault.Fault{Kind: fault.Switch, U: 5}))
	if err != nil {
		t.Fatal(err)
	}
	plan := v.PlanService(w)
	if pc := plan.PPDC.SwitchClosure(); pc == d.SwitchClosure() || pc == v.PPDC().SwitchClosure() {
		t.Fatal("region plan shares another PPDC's closure")
	}
	if _, _, err := (placement.DP{}).Place(plan.PPDC, plan.Served, sfc); err != nil {
		t.Fatal(err)
	}
	if built, _ := stroll.TableStats(); built == built1 {
		t.Fatal("region plan built no tables of its own")
	}
}

// BenchmarkDPPlace times Algorithm 3 at k=16 (320 switches, n=5, 1000
// clustered flows). cold gives every iteration a PPDC literal, whose
// closure and stroll tables start empty — the per-call cost before the
// tables were shared; warm places on one PPDC whose tables earlier
// iterations filled, the steady state of a daemon consult.
func BenchmarkDPPlace(b *testing.B) {
	topo := topology.MustFatTree(16, nil)
	d := model.MustNew(topo, model.Options{})
	w := workload.MustPairsClustered(topo, 1000, 5, workload.DefaultIntraRack, rand.New(rand.NewSource(1)))
	sfc := model.NewSFC(5)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold := &model.PPDC{Topo: d.Topo, APSP: d.APSP, Opts: d.Opts}
			if _, _, err := (placement.DP{}).Place(cold, w, sfc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, _, err := (placement.DP{}).Place(d, w, sfc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := (placement.DP{}).Place(d, w, sfc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
