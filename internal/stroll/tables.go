package stroll

import (
	"sync"
	"sync/atomic"
)

// Tables is a concurrency-safe set of Algorithm 2 tables over one
// read-only cost matrix, one DPTable per target, created on first use.
// Tables.Stroll(s, t, n, maxEdges) returns exactly what
// NewDPTable(cost, t).Stroll(s, n, maxEdges) returns, whatever the
// table served before: extend only appends layers, layer e depends only
// on the cost matrix, t and layer e−1, and a walk of r edges reads only
// layers ≤ r. So a table is fabric data — it never depends on traffic
// rates — and one set serves every placement over the same closure.
//
// Memory is bounded by one table per target, each holding the layers up
// to the largest edge budget any query ramped to. The tables point at
// the caller's matrix and never copy it; the caller must not mutate it.
type Tables struct {
	cost    [][]float64
	targets []targetTable
}

// targetTable guards one target's lazily created table: the first query
// toward t builds it, and every query extends and walks it under mu.
type targetTable struct {
	mu sync.Mutex
	tb *DPTable
}

// Process-wide totals over every Tables, for observability.
var tablesBuilt, tableQueries atomic.Int64

// TableStats reports the process-wide number of DP tables built and
// stroll queries answered through Tables.
func TableStats() (built, queries int64) {
	return tablesBuilt.Load(), tableQueries.Load()
}

// NewTables returns an empty table set over cost.
func NewTables(cost [][]float64) *Tables {
	return &Tables{cost: cost, targets: make([]targetTable, len(cost))}
}

// Stroll answers one s→t query from t's shared table (see
// DPTable.Stroll for n and maxEdges), building the table on first use.
func (ts *Tables) Stroll(s, t, n, maxEdges int) (Result, error) {
	tableQueries.Add(1)
	tt := &ts.targets[t]
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.tb == nil {
		tt.tb = NewDPTable(ts.cost, t)
		tablesBuilt.Add(1)
	}
	return tt.tb.Stroll(s, n, maxEdges)
}
