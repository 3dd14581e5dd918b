package model

import (
	"runtime"
	"sync"
	"sync/atomic"

	"vnfopt/internal/graph"
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

// fabricEntry is one cached fabric: its private CSR key and the APSP
// built from it. ready is closed once apsp is set, or once a failed
// build has taken the entry out of the cache (apsp stays nil).
type fabricEntry struct {
	hash  uint64
	csr   *graph.CSR
	apsp  *graph.APSP
	ready chan struct{}
	refs  int // PPDCs built from this entry; guarded by fabrics.mu
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
	e.apsp = graph.AllPairsCSR(e.csr, 0)
}

// track gives d's reference back to e when d is collected.
func (e *fabricEntry) track(d *PPDC) {
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
