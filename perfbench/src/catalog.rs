//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repository root lists the same names
//! (a unit test holds the two in step); later changes cite them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as cited.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher as H, Lower as L};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["cold_suite", "fleet4_cold", "serve_hot", "serve_spill"];

/// End-to-end metrics, printed with `--trace 0`.
///
/// `failed_fraction` is printed on the summary lines but is not in this
/// list: it reads 0 on a healthy run, so a bound relative to its median
/// means nothing. The result line's `attempted` and `failed` carry it.
pub const END_TO_END: [Metric; 8] = [
    m("throughput", "ops/s", H),
    m("latency_p50_ms", "ms", L),
    m("latency_tail_ms", "ms", L),
    m("cpu_ms_per_op", "ms", L),
    m("sim_ms_per_op", "ms", L),
    m("scaling_efficiency", "ratio", H),
    m("peak_rss_mb", "MB", L),
    m("setup_s", "s", L),
];

/// Per-layer metrics, printed with `--trace 1`. A metric of a layer the
/// workload does not run reads 0.
pub const PER_LAYER: [Metric; 74] = [
    // gplu_core::preprocess
    m("preprocess.wall_ms", "ms", L),
    m("preprocess.sim_ms", "ms", L),
    // gplu_symbolic
    m("symbolic.wall_ms", "ms", L),
    m("symbolic.sim_ms", "ms", L),
    m("symbolic.iterations", "count", L),
    m("symbolic.fill_nnz", "count", L),
    // gplu_schedule
    m("levelize.wall_ms", "ms", L),
    m("levelize.sim_ms", "ms", L),
    m("levelize.levels", "count", L),
    m("levelize.max_width", "count", H),
    // gplu_numeric engines
    m("numeric.wall_ms", "ms", L),
    m("numeric.sim_ms", "ms", L),
    m("numeric.dense_calls", "count", L),
    m("numeric.merge_calls", "count", L),
    m("numeric.blocked_calls", "count", L),
    m("numeric.batches", "count", L),
    m("numeric.merge_steps", "count", L),
    m("numeric.gemm_tiles", "count", L),
    m("numeric.mode_a", "count", L),
    m("numeric.mode_b", "count", L),
    m("numeric.mode_c", "count", L),
    // residual gate
    m("gate.wall_ms", "ms", L),
    m("gate.residual_max", "ratio", L),
    // gplu_numeric::trisolve
    m("trisolve.wall_ms", "ms", L),
    m("trisolve.sim_ms", "ms", L),
    // gplu_core::refactor (warm replay)
    m("refactor.wall_ms_p50", "ms", L),
    m("refactor.sim_ms_p50", "ms", L),
    m("refactor.merge_steps", "count", L),
    // gplu_core::fleet + gplu_sim::fleet
    m("fleet.single_sim_ms", "ms", L),
    m("fleet.symbolic_sim_ms", "ms", L),
    m("fleet.numeric_sim_ms", "ms", L),
    m("fleet.exchanges", "count", L),
    m("fleet.exchange_bytes", "bytes", L),
    m("fleet.exchange_sim_ms", "ms", L),
    // gplu_server admission + queue
    m("admission.submit_us_p50", "us", L),
    m("admission.rejected", "count", L),
    m("queue.wait_ms_p50", "ms", L),
    m("queue.wait_ms_tail", "ms", L),
    m("queue.max_depth", "count", L),
    // gplu_server execute
    m("execute.cold_ms_p50", "ms", L),
    m("execute.warm_ms_p50", "ms", L),
    m("execute.warm_host_ms_p50", "ms", L),
    m("execute.warm_disk_ms_p50", "ms", L),
    m("execute.cached_solve_ms_p50", "ms", L),
    m("solve.wall_ms_p50", "ms", L),
    m("tier.cold.share", "ratio", L),
    m("tier.warm.share", "ratio", H),
    m("tier.warm_host.share", "ratio", L),
    m("tier.warm_disk.share", "ratio", L),
    m("tier.cached_solve.share", "ratio", H),
    // gplu_server::cache
    m("cache.hot_hit_rate", "ratio", H),
    m("cache.plans_built", "count", L),
    m("cache.hits", "count", H),
    m("cache.host_hits", "count", H),
    m("cache.disk_hits", "count", H),
    m("cache.misses", "count", L),
    m("cache.evictions", "count", L),
    m("cache.demotions", "count", L),
    m("cache.promotions", "count", L),
    m("cache.host_evictions", "count", L),
    // gplu_checkpoint::PlanStore + gplu_core::plan_codec
    m("disk.writes", "count", L),
    m("disk.write_failures", "count", L),
    m("disk.rejects", "count", L),
    m("plan_codec.encode_us_p50", "us", L),
    m("plan_codec.decode_us_p50", "us", L),
    // gplu_sim priced counts (computed, not measured on a device)
    m("gpu.kernels_host", "count", L),
    m("gpu.kernels_device", "count", L),
    m("gpu.h2d_bytes", "bytes", L),
    m("gpu.d2h_bytes", "bytes", L),
    m("gpu.kernel_sim_ms", "ms", L),
    m("gpu.xfer_sim_ms", "ms", L),
    // the benchmark itself
    m("trace.overhead_fraction", "ratio", L),
    m("failed_fraction", "ratio", L),
    m("op.self_ms", "ms", L),
];

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_trace::json::{parse, JsonValue};
    use std::collections::HashSet;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_round_trips_the_catalog() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        // Writing the parsed document back and re-parsing it is lossless.
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn benchmark_json_meets_its_contract() {
        let doc = benchmark_json();
        let keys: Vec<&str> = match &doc {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("object"),
        };
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let secs = doc.get("run_seconds").and_then(JsonValue::as_u64).unwrap();
        assert!((1..=60).contains(&secs));
        let mut setup_bound = 0.0;
        let mut max_bound: f64 = 0.0;
        for e in doc.get("end_to_end").and_then(JsonValue::as_arr).unwrap() {
            let bound = e.get("bound").and_then(JsonValue::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            max_bound = max_bound.max(bound);
            if e.get("name").and_then(JsonValue::as_str) == Some("setup_s") {
                setup_bound = bound;
            }
        }
        assert_eq!(setup_bound, max_bound, "setup_s carries the largest bound");
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
        }
    }
}
