//! The metric tables: every name the harness prints, with its unit. They
//! mirror `BENCHMARK.json` (a unit test holds the two together) — the
//! untraced run prints exactly `END_TO_END`, the traced run exactly
//! `PER_LAYER`.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric; every workload reports all.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_qps", "req/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric; a layer a workload does not
/// run reads `0`.
pub const PER_LAYER: [(&str, &str); 83] = [
    ("temporal.score_ns", "ns"),
    ("index.segtree.build_ms", "ms"),
    ("index.segtree.topk_us", "us"),
    ("index.segtree.nodes_opened_per_probe", "count"),
    ("index.segtree.records_scanned_per_probe", "count"),
    ("index.forest.append_ns", "ns"),
    ("index.forest.topk_us", "us"),
    ("index.forest.tree_count", "count"),
    ("index.skyband.push_ns", "ns"),
    ("index.skyband.candidates_us", "us"),
    ("store.chunk.write_us", "us"),
    ("store.chunk.read_us", "us"),
    ("store.pager.page_reads", "count"),
    ("core.oracle.probe_us", "us"),
    ("core.execute.thop_p50_ms", "ms"),
    ("core.execute.sband_p50_ms", "ms"),
    ("core.execute.shop_p50_ms", "ms"),
    ("core.query.probes_per_req", "count"),
    ("core.query.candidates_per_req", "count"),
    ("core.query.blocked_skips_per_req", "count"),
    ("core.query.results_per_req", "count"),
    ("core.query.fallbacks", "count"),
    ("core.probe_share", "ratio"),
    ("core.serve.queued_p50_us", "us"),
    ("core.serve.service_p50_us", "us"),
    ("core.serve.handoff_p50_us", "us"),
    ("core.serve.queue_overhead_us", "us"),
    ("core.serve.max_depth", "count"),
    ("core.serve.rejected", "count"),
    ("core.pool.threads", "count"),
    ("core.pool.noop_jobs_us", "us"),
    ("core.result_cache.lookups", "count"),
    ("core.result_cache.hit_ratio", "ratio"),
    ("core.result_cache.evictions", "count"),
    ("core.result_cache.resident_mb", "MiB"),
    ("core.result_cache.hit_service_us", "us"),
    ("core.result_cache.miss_service_us", "us"),
    ("core.storage.fetch_warm_us", "us"),
    ("core.storage.fetch_cold_us", "us"),
    ("core.storage.cold_page_reads_per_req", "count"),
    ("core.storage.resident_mb", "MiB"),
    ("core.storage.spilled_chunks", "count"),
    ("core.sharded.append_kps", "1000/s"),
    ("core.sharded.append_p50_ns", "ns"),
    ("core.sharded.append_p99_us", "us"),
    ("core.sharded.append_p999_us", "us"),
    ("core.sharded.append_max_us", "us"),
    ("core.sharded.seal_boundary_append_us", "us"),
    ("core.sharded.pending_seals_max", "count"),
    ("core.sharded.quiesce_ms", "ms"),
    ("core.sharded.shards", "count"),
    ("core.sharded.seals", "count"),
    ("core.subscribe.refreshes", "count"),
    ("core.subscribe.fast_path_skips", "count"),
    ("core.subscribe.full_recomputes", "count"),
    ("core.subscribe.fast_path_ratio", "ratio"),
    ("core.subscribe.append_overhead_ns", "ns"),
    ("net.wire.encode_req_ns", "ns"),
    ("net.wire.decode_req_ns", "ns"),
    ("net.wire.encode_resp_us", "us"),
    ("net.wire.decode_resp_us", "us"),
    ("net.wire.resp_bytes", "count"),
    ("net.remote.rpc_p50_us", "us"),
    ("net.remote.node_service_p50_us", "us"),
    ("net.remote.transport_p50_us", "us"),
    ("net.remote.retries", "count"),
    ("net.coordinator.query_p50_us", "us"),
    ("net.coordinator.overhead_1node_us", "us"),
    ("net.coordinator.overhead_2node_us", "us"),
    ("net.coordinator.two_node_frac", "ratio"),
    ("net.server.served", "count"),
    ("net.server.failed", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.untraced_p50_us", "us"),
    ("trace.traced_p50_us", "us"),
    ("trace.traced_p99_us", "us"),
    ("trace.spans", "count"),
    ("trace.requests", "count"),
    ("harness.setup_s", "s"),
    ("harness.checked_requests", "count"),
    ("harness.error_rate", "ratio"),
    ("harness.peak_rss_mb", "MiB"),
    ("harness.appends", "count"),
];

/// Per-layer values gathered by the traced run, keyed by table name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records a value; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted per-layer metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of the entries listed under `"key": [` in
    /// BENCHMARK.json, in file order (the unit is empty where none is given).
    fn listed(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let section = text.split(&format!("\"{key}\": [")).nth(1).expect("section present");
        let section = section.split("\n  ]").next().expect("section closes");
        let field = |line: &str, name: &str| {
            let rest = line.split(&format!("\"{name}\": \"")).nth(1)?;
            Some(rest.split('"').next()?.to_string())
        };
        section
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
            .collect()
    }

    fn table(rows: &[(&str, &str)]) -> Vec<(String, String)> {
        rows.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let kinds: Vec<(&str, &str)> =
            crate::workloads::KINDS.iter().map(|k| (k.name(), "")).collect();
        assert_eq!(listed("workloads"), table(&kinds));
    }
}
