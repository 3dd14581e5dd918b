package main

import "sort"

// routeLabel selects one route's series of vnfoptd_request_seconds.
// The closing quote keeps "POST /v1/scenarios" from matching its
// sub-routes.
func routeLabel(route string) string { return `route="` + route + `"` }

var serverRoutes = map[string]string{
	"vnfoptd.rates_server_ms":     "POST /v1/scenarios/{id}/rates",
	"vnfoptd.bulk_server_ms":      "POST /v1/scenarios/{id}/rates:bulk",
	"vnfoptd.step_server_ms":      "POST /v1/scenarios/{id}/step",
	"vnfoptd.faults_server_ms":    "POST /v1/scenarios/{id}/faults",
	"vnfoptd.create_server_ms":    "POST /v1/scenarios",
	"vnfoptd.placement_server_ms": "GET /v1/scenarios/{id}/placement",
}

// layerCounts fills the per-layer metrics that come from the daemon's
// /metrics deltas across the timed phase and from the client's own
// records and accounting.
func (b *bench) layerCounts(ph *phase, rep *runReport) {
	l := rep.layer
	d := func(fam string, labels ...string) float64 { return delta(ph.before, ph.after, fam, labels...) }

	for name, route := range serverRoutes {
		l[name] = meanDelta(ph.before, ph.after, "vnfoptd_request_seconds", routeLabel(route)) * 1e3
	}
	// Client latency not spent in the handler: transport, HTTP parsing
	// on both ends, and the client's own scheduling.
	var clientSec float64
	var n int
	for _, r := range ph.all() {
		clientSec += r.latency.Seconds()
		n++
	}
	serverSec := d("vnfoptd_request_seconds_sum") - d("vnfoptd_request_seconds_sum", routeLabel("GET /metrics"))
	l["vnfoptd.client_gap_ms"] = ratio(clientSec-serverSec, float64(n)) * 1e3

	l["shard.rejected_429"] = float64(rep.acct.retried)
	var drained, steps float64
	var admitted, offered float64
	for _, r := range ph.all() {
		if r.err != nil {
			continue
		}
		if r.op.kind == opStep {
			drained += float64(r.out.drained)
			steps++
		}
		if r.out.routed && (r.op.kind == opStep || r.op.step) {
			admitted += float64(r.out.admitted)
			offered += float64(r.out.admitted + r.out.rejected)
		}
	}
	l["shard.queue_drained_mean"] = ratio(drained, steps)

	updates := d("vnfopt_engine_updates_total")
	l["wal.append_ms"] = meanDelta(ph.before, ph.after, "vnfopt_wal_append_seconds") * 1e3
	l["wal.fsyncs_per_update"] = ratio(d("vnfopt_wal_fsyncs_total"), updates)
	l["wal.bytes_per_update"] = ratio(d("vnfopt_wal_appended_bytes_total"), updates)

	epochs, consults := d("vnfopt_engine_epochs_total"), d("vnfopt_engine_consults_total")
	l["engine.consults_per_epoch"] = ratio(consults, epochs)
	l["engine.migrations_per_consult"] = ratio(d("vnfopt_engine_migrations_total"), consults)
	l["engine.coalesced_frac"] = ratio(d("vnfopt_engine_updates_coalesced_total"), updates)
	l["engine.repair_fallbacks"] = d("vnfopt_engine_repair_fallbacks_total")
	l["model.cache_rebuilds"] = d("vnfopt_cache_rebuilds_total")
	l["model.cache_deltas"] = d("vnfopt_cache_deltas_total")
	l["migration.expansions"] = d("vnfopt_search_expansions_total", `search="migration"`)
	l["graph.apsp_builds"] = d("vnfopt_apsp_build_seconds_count")
	l["graph.apsp_deltas"] = d("vnfopt_apsp_delta_seconds_count")
	l["sfcroute.admitted_frac"] = ratio(admitted, offered)

	l["proc.daemon_cpu_s"] = ph.daemonCPU
	l["proc.client_cpu_s"] = ph.clientCPU
	if len(ph.late) > 0 {
		l["loadgen.late_p99_ms"] = quantile(ph.late, 0.99)
	}
}

// layerTimes fills the per-layer metrics that come from the traced
// replay: span means and self times, the engine observers' histogram
// totals, and the replay's own runtime counters.
func (b *bench) layerTimes(ph *phase, tr *recorder, untraced, traced *replayResult) {
	l := b.layer
	sp := tr.aggregate()
	l["shard.mailbox_wait_ms"] = sp["shard.mailbox_wait"].meanMs()
	l["engine.ingest_us"] = sp["engine.ingest"].meanMs() * 1e3
	l["engine.step_ms"] = sp["engine.step"].meanMs()
	l["engine.step_self_ms"] = sp["engine.step"].meanSelfMs()
	l["engine.consult_ms"] = ratio(traced.consultSec, traced.consults) * 1e3
	l["engine.apply_faults_ms"] = sp["engine.apply_faults"].meanMs()
	l["engine.apply_faults_self_ms"] = sp["engine.apply_faults"].meanSelfMs()
	l["engine.new_ms"] = sp["engine.new"].meanMs()
	l["model.new_ms"] = sp["model.new"].meanMs()
	l["model.cache_rebuild_ms"] = ratio(traced.rebuildSec, traced.rebuilds) * 1e3
	l["placement.top_ms"] = sp["placement.top"].meanMs()
	l["migration.consult_ms"] = sp["migration.consult"].meanMs()
	l["graph.apsp_build_ms"] = sp["graph.apsp_build"].meanMs()
	l["graph.apsp_delta_ms"] = sp["graph.apsp_delta"].meanMs()
	l["graph.apsp_dirty_frac"] = traced.dirtyFrac
	l["fault.view_ms"] = sp["fault.view"].meanMs()
	if b.w.routed {
		// Routing runs inside Step with no span of its own yet, so it is
		// most of Step's self time on a routed workload.
		l["sfcroute.route_ms"] = l["engine.step_self_ms"]
	}
	l["runtime.alloc_mb_per_op"] = ratio(traced.allocMB, float64(traced.ops))
	l["runtime.gc_cycles"] = traced.gcCycles
	l["trace.overhead_frac"] = ratio(float64(traced.wall-untraced.wall), float64(untraced.wall))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
