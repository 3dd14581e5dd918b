package model

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vnfopt/internal/graph"
	"vnfopt/internal/stroll"
)

// The shared fabric layer. The cost oracle c(u,v) depends only on the
// fabric, so New keeps one immutable APSP per distinct fabric content
// and hands it to every PPDC built over that content: a daemon running
// a fleet of k=16 scenarios builds the ~22 MB matrix once instead of
// once per create, and the WAL replay, snapshot load and in-process
// replays that rebuild the same specs reuse it too.
//
// Content addressing: the key is the topology graph frozen into a CSR
// (order, row offsets, targets, weight bits). A hash picks the bucket; a
// hit is confirmed by a full Equal against the entry's own private CSR,
// which no caller can reach, so mutating a graph after New cannot poison
// a later lookup of the original content.
//
// Lifetime: an entry counts the PPDCs New returned from it, and a
// finalizer on each PPDC gives its count back. The entry never points
// at a PPDC, so every PPDC stays collectable; once the last one is
// collected the entry leaves the cache, and the matrix lives on only
// while a fault view still shares its rows. Sharing is safe because an
// APSP has no mutators: the delta paths return new matrices.
//
// The switch closure G'' and its Algorithm 2 tables are fabric data
// too: they depend on the APSP and the switch list, never on traffic.
// Each entry holds one closure set, so every TOP over the same fabric
// and switch list reuses one closure and one set of stroll tables.

// fabricEntry is one cached fabric: its private CSR key, the APSP built
// from it and the switch closures over that APSP. ready is closed once
// apsp is set, or once a failed build has taken the entry out of the
// cache (apsp stays nil).
type fabricEntry struct {
	hash     uint64
	csr      *graph.CSR
	apsp     *graph.APSP
	closures *closureSet
	ready    chan struct{}
	refs     int // PPDCs built from this entry; guarded by fabrics.mu
}

var fabrics = struct {
	mu      sync.Mutex
	buckets map[uint64][]*fabricEntry
	live    int
}{buckets: make(map[uint64][]*fabricEntry)}

var fabricHits, fabricMisses atomic.Int64

// FabricCacheStats reports the shared fabric cache's lifetime hit and
// miss counts (a miss is one full APSP build) and the number of fabrics
// currently cached.
func FabricCacheStats() (hits, misses int64, entries int) {
	fabrics.mu.Lock()
	entries = fabrics.live
	fabrics.mu.Unlock()
	return fabricHits.Load(), fabricMisses.Load(), entries
}

// sharedAPSP returns the entry for g's content, building its APSP on
// the first request. The caller holds one reference and hands it to the
// PPDC it builds with track. Callers racing on the same uncached
// content wait for one build.
func sharedAPSP(g *graph.Graph) *fabricEntry {
	csr := g.Freeze()
	h := csr.Hash()
	for {
		fabrics.mu.Lock()
		var e *fabricEntry
		for _, c := range fabrics.buckets[h] {
			if c.csr.Equal(csr) {
				e = c
				break
			}
		}
		if e == nil {
			e = &fabricEntry{hash: h, csr: csr, ready: make(chan struct{}), refs: 1}
			fabrics.buckets[h] = append(fabrics.buckets[h], e)
			fabrics.live++
			fabrics.mu.Unlock()
			fabricMisses.Add(1)
			buildFabric(e)
			return e
		}
		e.refs++
		fabrics.mu.Unlock()
		<-e.ready
		if e.apsp != nil {
			fabricHits.Add(1)
			return e
		}
		// The build we waited on failed and left the cache; try again.
	}
}

// buildFabric computes e's APSP and publishes it. A panicking build
// (a kernel bug) takes the entry out of the cache before the panic
// continues, so waiters retry instead of blocking forever.
func buildFabric(e *fabricEntry) {
	defer func() {
		if e.apsp == nil {
			fabrics.mu.Lock()
			dropFabric(e)
			fabrics.mu.Unlock()
		}
		close(e.ready)
	}()
	apsp := graph.AllPairsCSR(e.csr, 0)
	e.closures = &closureSet{apsp: apsp}
	e.apsp = apsp
}

// track hands d the entry's closure set and gives d's reference back
// to e when d is collected.
func (e *fabricEntry) track(d *PPDC) {
	d.closures.Store(e.closures)
	runtime.SetFinalizer(d, func(*PPDC) { e.release() })
}

// release drops one PPDC reference; the last one evicts the entry.
func (e *fabricEntry) release() {
	fabrics.mu.Lock()
	defer fabrics.mu.Unlock()
	if e.refs--; e.refs == 0 {
		dropFabric(e)
	}
}

// dropFabric removes e from its bucket, if it is still there. Caller
// holds fabrics.mu.
func dropFabric(e *fabricEntry) {
	b := fabrics.buckets[e.hash]
	for i, c := range b {
		if c == e {
			b = append(b[:i], b[i+1:]...)
			fabrics.live--
			break
		}
	}
	if len(b) == 0 {
		delete(fabrics.buckets, e.hash)
	} else {
		fabrics.buckets[e.hash] = b
	}
}

// SwitchClosure is the metric closure G” over one switch list — the
// complete graph the stroll solvers run on — with its minimum
// off-diagonal edge and the Algorithm 2 tables toward every egress.
// All of it is read-only and shared by every PPDC over the same APSP
// and switch list.
type SwitchClosure struct {
	// Switches maps a closure index to its graph vertex.
	Switches []int
	// MinEdge is the smallest off-diagonal closure cost.
	MinEdge float64
	// Tables answers stroll queries over the closure.
	Tables *stroll.Tables

	// cost[i][j] = c(Switches[i], Switches[j]). When the switch list is
	// one increasing run of vertex ids, the rows are sub-slices of the
	// APSP rows; otherwise they are one copy per closure.
	cost [][]float64
}

// closureSet holds the switch closures over one APSP, one per distinct
// switch list (matched by equality, not identity).
type closureSet struct {
	apsp *graph.APSP
	mu   sync.Mutex
	list []*SwitchClosure
}

// get returns the closure over switches, building it on first use.
func (cs *closureSet) get(switches []int) *SwitchClosure {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, c := range cs.list {
		if slices.Equal(c.Switches, switches) {
			return c
		}
	}
	c := newSwitchClosure(cs.apsp, slices.Clone(switches))
	cs.list = append(cs.list, c)
	return c
}

func newSwitchClosure(a *graph.APSP, sw []int) *SwitchClosure {
	var cost [][]float64
	if len(sw) > 0 && sw[len(sw)-1]-sw[0] == len(sw)-1 && slices.IsSorted(sw) {
		// Sorted with no gaps and no duplicates: alias the APSP rows.
		lo, hi := sw[0], sw[0]+len(sw)
		cost = make([][]float64, len(sw))
		for i, u := range sw {
			cost[i] = a.Row(u)[lo:hi:hi]
		}
	} else {
		cost = a.CostMatrix(sw)
	}
	minEdge := math.Inf(1)
	for i := range cost {
		for j, c := range cost[i] {
			if i != j && c < minEdge {
				minEdge = c
			}
		}
	}
	return &SwitchClosure{Switches: sw, MinEdge: minEdge, Tables: stroll.NewTables(cost), cost: cost}
}

// SwitchClosure returns the closure over d's switches. A PPDC from New
// uses its fabric entry's closure set; one built as a struct literal
// (the fault package's degraded views and service plans) gets a private
// set on first use, as does any PPDC whose APSP no longer matches the
// set it holds.
func (d *PPDC) SwitchClosure() *SwitchClosure {
	for {
		cs := d.closures.Load()
		if cs != nil && cs.apsp == d.APSP {
			return cs.get(d.Topo.Switches)
		}
		d.closures.CompareAndSwap(cs, &closureSet{apsp: d.APSP})
	}
}
