package model

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnfopt/internal/graph"
	"vnfopt/internal/topology"
)

// fabricFixtures are the fabrics the cache properties run over: two fat
// trees, a leaf-spine and a jellyfish with random link weights.
func fabricFixtures(t *testing.T) map[string]*topology.Topology {
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

// sameMatrix reports whether a and b agree bitwise on every dist and
// prev entry.
func sameMatrix(a, b *graph.APSP) bool {
	if a.Order() != b.Order() {
		return false
	}
	for u := 0; u < a.Order(); u++ {
		for v := 0; v < a.Order(); v++ {
			if math.Float64bits(a.Cost(u, v)) != math.Float64bits(b.Cost(u, v)) || a.Pred(u, v) != b.Pred(u, v) {
				return false
			}
		}
	}
	return true
}

// countBuilds installs an APSP observer counting full builds for the
// rest of the test.
func countBuilds(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	graph.SetAPSPObserver(func(int, int, int, time.Duration) { n.Add(1) })
	t.Cleanup(func() { graph.SetAPSPObserver(nil) })
	return &n
}

func TestFabricCacheMatchesSequentialOracle(t *testing.T) {
	for name, topo := range fabricFixtures(t) {
		t.Run(name, func(t *testing.T) {
			d1 := MustNew(topo, Options{})
			d2 := MustNew(topo, Options{})
			if d1 == d2 || d1.APSP != d2.APSP {
				t.Fatalf("want distinct PPDCs sharing one APSP, got %p/%p with %p/%p", d1, d2, d1.APSP, d2.APSP)
			}
			if !sameMatrix(d1.APSP, graph.AllPairsSequential(topo.Graph)) {
				t.Fatal("cached APSP differs from AllPairsSequential")
			}
		})
	}
}

func TestFabricCacheKeysOnWeightBits(t *testing.T) {
	topo := topology.MustFatTree(4, nil)
	d := MustNew(topo, Options{})
	// Nudge one edge weight by one ulp: a different fabric.
	e := topo.Graph.Edges()[0]
	w := math.Nextafter(e.Weight, 2)
	other := &topology.Topology{
		Name: topo.Name, Kind: topo.Kind, Labels: topo.Labels, Hosts: topo.Hosts, Switches: topo.Switches,
		Graph: topo.Graph.CloneMapped(func(u, v int, x float64) (float64, bool) {
			if (u == e.U && v == e.V) || (u == e.V && v == e.U) {
				return w, true
			}
			return x, true
		}),
	}
	d2 := MustNew(other, Options{})
	if d2.APSP == d.APSP {
		t.Fatal("a one-ulp weight change hit the original fabric's entry")
	}
	if !sameMatrix(d2.APSP, graph.AllPairsSequential(other.Graph)) {
		t.Fatal("re-weighted fabric's APSP differs from AllPairsSequential")
	}
	runtime.KeepAlive(d)
}

func TestFabricCacheCallerMutationDoesNotPoison(t *testing.T) {
	topo := topology.MustFatTree(4, nil)
	oracle := graph.AllPairsSequential(topo.Graph)
	d := MustNew(topo, Options{})
	// Mutate the caller's graph after New: a shortcut between two
	// switches changes distances.
	a, b := topo.Switches[0], topo.Switches[len(topo.Switches)-1]
	topo.Graph.AddEdge(a, b, 0.5)
	fresh := topology.MustFatTree(4, nil)
	d2 := MustNew(fresh, Options{})
	if d2.APSP != d.APSP {
		t.Fatal("original content no longer hits after the caller mutated its graph")
	}
	if !sameMatrix(d2.APSP, oracle) {
		t.Fatal("cached APSP changed after the caller mutated its graph")
	}
	mutated := MustNew(topo, Options{})
	if mutated.APSP == d.APSP || mutated.Cost(a, b) != 0.5 {
		t.Fatal("mutated content must build its own entry")
	}
}

func TestFabricCacheConcurrentMissBuildsOnce(t *testing.T) {
	// A weight no other test uses keeps this fabric out of the cache.
	topo := topology.MustFatTree(8, func() float64 { return 1.25 })
	builds := countBuilds(t)
	const n = 16
	out := make([]*PPDC, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			out[i] = MustNew(topo, Options{AllowColocation: i%2 == 0})
		}(i)
	}
	close(start)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent News built the APSP %d times, want 1", n, got)
	}
	seen := map[*PPDC]bool{}
	for i, d := range out {
		if d.APSP != out[0].APSP {
			t.Fatalf("PPDC %d holds a different APSP", i)
		}
		if seen[d] {
			t.Fatalf("PPDC %d returned twice", i)
		}
		seen[d] = true
		if d.Topo != topo || d.Opts.AllowColocation != (i%2 == 0) {
			t.Fatalf("PPDC %d lost the caller's topology or options", i)
		}
	}
}

func TestFabricCacheEvictsUnreachable(t *testing.T) {
	hits0, misses0, _ := FabricCacheStats()
	var held []*PPDC
	for i := 0; i < 4; i++ {
		topo := topology.MustFatTree(4, func() float64 { return 2 + float64(i) })
		held = append(held, MustNew(topo, Options{}), MustNew(topo, Options{}))
	}
	hits, misses, entries := FabricCacheStats()
	if hits-hits0 != 4 || misses-misses0 != 4 || entries < 4 {
		t.Fatalf("hits +%d misses +%d entries %d, want +4, +4 and at least 4", hits-hits0, misses-misses0, entries)
	}
	runtime.KeepAlive(held)
	held = nil
	for i := 0; i < 100; i++ {
		runtime.GC()
		if _, _, entries := FabricCacheStats(); entries == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, _, entries = FabricCacheStats()
	t.Fatalf("%d fabric entries still cached after every PPDC was dropped", entries)
}

// TestSwitchClosureAliasing: a switch list that is one increasing run
// of vertex ids reads its closure straight from the APSP rows; any other
// list gets a copy. Either way the closure is bitwise CostMatrix, and
// MinEdge is its smallest off-diagonal entry.
func TestSwitchClosureAliasing(t *testing.T) {
	d := MustNew(topology.MustFatTree(4, topology.PaperDelay(rand.New(rand.NewSource(5)))), Options{})
	sw := d.Topo.Switches
	gappy := append(append([]int(nil), sw[:3]...), sw[5:]...)
	reversed := make([]int, len(sw))
	for i, v := range sw {
		reversed[len(sw)-1-i] = v
	}
	for name, c := range map[string]struct {
		switches []int
		aliased  bool
	}{"contiguous": {sw, true}, "gap": {gappy, false}, "reversed": {reversed, false}} {
		t.Run(name, func(t *testing.T) {
			lit := &PPDC{Topo: &topology.Topology{Graph: d.Topo.Graph, Switches: c.switches}, APSP: d.APSP}
			cl := lit.SwitchClosure()
			want := d.APSP.CostMatrix(c.switches)
			minEdge := math.Inf(1)
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(cl.cost[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("closure[%d][%d] = %v, CostMatrix %v", i, j, cl.cost[i][j], want[i][j])
					}
					if i != j {
						minEdge = math.Min(minEdge, want[i][j])
					}
				}
			}
			if cl.MinEdge != minEdge {
				t.Fatalf("MinEdge %v, want %v", cl.MinEdge, minEdge)
			}
			if aliased := &cl.cost[0][0] == &d.APSP.Row(c.switches[0])[c.switches[0]]; aliased != c.aliased {
				t.Fatalf("closure aliases the APSP rows: %v, want %v", aliased, c.aliased)
			}
		})
	}
}

// TestSwitchClosureOwnership: a struct literal over a New PPDC's APSP
// and switches keeps a private closure, and a PPDC whose APSP was
// swapped after its first use gets a new one.
func TestSwitchClosureOwnership(t *testing.T) {
	topo := topology.MustFatTree(4, nil)
	d := MustNew(topo, Options{})
	lit := &PPDC{Topo: topo, APSP: d.APSP}
	cl := lit.SwitchClosure()
	if cl == d.SwitchClosure() || cl != lit.SwitchClosure() {
		t.Fatal("a literal PPDC must keep one private closure")
	}
	lit.APSP = graph.AllPairsSequential(topo.Graph)
	if lit.SwitchClosure() == cl {
		t.Fatal("a PPDC with a new APSP kept the closure of the old one")
	}
}
