//! Fleet entry points of the numeric phase: [`run_levels`] on a
//! [`Devices::Fleet`] placement, plus the per-device accounting a fleet
//! caller reads back. There is no separate fleet driver — see
//! [`crate::engine`] for the per-level column sharding, the level-barrier
//! all-gather and the death rule. Fleet runs are cold: checkpoint/resume
//! and the captured-schedule replay fast path are only wired for
//! single-device callers.

use crate::blocked::{BlockPlan, BlockedEngine};
use crate::dense::DenseEngine;
use crate::engine::{run_levels, NumericEngine};
use crate::error::NumericError;
use crate::merge::MergeEngine;
use crate::outcome::{NumericOutcome, PivotRule};
use gplu_schedule::Levels;
use gplu_sim::{DeviceFleet, Devices, Gpu, SimTime};
use gplu_sparse::Csc;
use gplu_trace::TraceSink;

/// Outcome of a fleet numeric run: the ordinary [`NumericOutcome`]
/// (bit-identical factors, makespan time) plus fleet accounting.
#[derive(Debug, Clone)]
pub struct FleetNumericOutcome {
    /// The factors and counters, as the single-device driver reports them.
    pub outcome: NumericOutcome,
    /// Per-device simulated time spent in this phase, indexed by device
    /// ordinal.
    pub per_device: Vec<SimTime>,
    /// Devices that died during this phase (their chunks were resharded).
    pub died: Vec<usize>,
    /// Columns re-run on survivors after device deaths.
    pub resharded_cols: usize,
}

fn run_fleet<E: NumericEngine>(
    engine: &mut E,
    fleet: &DeviceFleet,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    let before: Vec<_> = fleet.devices().iter().map(Gpu::stats).collect();
    let was_dead: Vec<bool> = (0..fleet.len()).map(|d| fleet.is_dead(d)).collect();
    let resharded = fleet.resharded();
    let outcome = run_levels(
        engine,
        Devices::Fleet(fleet),
        pattern,
        levels,
        trace,
        None,
        None,
        None,
        rule,
    )?;
    Ok(FleetNumericOutcome {
        outcome,
        per_device: fleet
            .devices()
            .iter()
            .zip(&before)
            .map(|(g, b)| g.stats().since(b).now)
            .collect(),
        died: (0..fleet.len())
            .filter(|&d| fleet.is_dead(d) && !was_dead[d])
            .collect(),
        resharded_cols: fleet.resharded() - resharded,
    })
}

/// Merge-join engine across a fleet (the production numeric path).
pub fn factorize_fleet_merge(
    fleet: &DeviceFleet,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    run_fleet(&mut MergeEngine::new(), fleet, pattern, levels, trace, rule)
}

/// Dense-column engine across a fleet.
pub fn factorize_fleet_dense(
    fleet: &DeviceFleet,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    run_fleet(&mut DenseEngine::new(), fleet, pattern, levels, trace, rule)
}

/// Supernode-blocked engine across a fleet.
pub fn factorize_fleet_blocked(
    fleet: &DeviceFleet,
    pattern: &Csc,
    levels: &Levels,
    plan: &BlockPlan,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    run_fleet(
        &mut BlockedEngine::new(plan),
        fleet,
        pattern,
        levels,
        trace,
        rule,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::factorize_gpu_merge;
    use crate::outcome::PivotCache;
    use crate::sparse::SparseEngine;
    use gplu_schedule::{levelize_cpu, DepGraph};
    use gplu_sim::{CostModel, GpuConfig};
    use gplu_sparse::convert::csr_to_csc;
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_symbolic::symbolic_cpu;
    use gplu_trace::NOOP;

    /// `blocks` independent banded chains: every schedule level is
    /// `blocks` wide, so a fleet actually has columns to split.
    fn block_banded(blocks: usize, m: usize, band: usize, seed: u64) -> gplu_sparse::Csr {
        let n = blocks * m;
        let mut coo = gplu_sparse::Coo::new(n, n);
        for b in 0..blocks {
            let base = b * m;
            let block = banded_dominant(m, band, seed.wrapping_add(b as u64));
            for i in 0..m {
                for (j, v) in block.row_iter(i) {
                    coo.push(base + i, base + j, v);
                }
            }
        }
        gplu_sparse::gen::assemble_dominant(coo, 1.0)
    }

    fn setup(blocks: usize, m: usize, band: usize, seed: u64) -> (Csc, Levels) {
        let a = block_banded(blocks, m, band, seed);
        let sym = symbolic_cpu(&a, &CostModel::default());
        let g = DepGraph::build(&sym.result.filled);
        let levels = levelize_cpu(&g, &CostModel::default()).levels;
        (csr_to_csc(&sym.result.filled), levels)
    }

    /// Runs engine `kind` (dense, merge, sparse, blocked) through the one
    /// level driver on `devices`.
    fn factorize(
        kind: usize,
        devices: Devices<'_>,
        pattern: &Csc,
        levels: &Levels,
        plan: &BlockPlan,
    ) -> NumericOutcome {
        let (trace, rule) = (&NOOP, PivotRule::Exact);
        match kind {
            0 => run_levels(
                &mut DenseEngine::new(),
                devices,
                pattern,
                levels,
                trace,
                None,
                None,
                None,
                rule,
            ),
            1 => run_levels(
                &mut MergeEngine::new(),
                devices,
                pattern,
                levels,
                trace,
                None,
                None,
                None,
                rule,
            ),
            2 => run_levels(
                &mut SparseEngine::new(None),
                devices,
                pattern,
                levels,
                trace,
                None,
                None,
                None,
                rule,
            ),
            _ => run_levels(
                &mut BlockedEngine::new(plan),
                devices,
                pattern,
                levels,
                trace,
                None,
                None,
                None,
                rule,
            ),
        }
        .expect("factorizes")
    }

    fn bits(out: &NumericOutcome) -> Vec<u64> {
        out.lu.vals.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_gpu_prices_exactly_like_a_fleet_of_one() {
        for seed in [3, 7, 11] {
            let a = random_dominant(400, 4.0, seed);
            let sym = symbolic_cpu(&a, &CostModel::default());
            let levels =
                levelize_cpu(&DepGraph::build(&sym.result.filled), &CostModel::default()).levels;
            let pattern = csr_to_csc(&sym.result.filled);
            let plan = BlockPlan::detect(&pattern, &PivotCache::build(&pattern), 0.5);
            for kind in 0..4 {
                let gpu = Gpu::new(GpuConfig::v100());
                let fleet = DeviceFleet::new(1, GpuConfig::v100());
                let one = factorize(kind, Devices::One(&gpu), &pattern, &levels, &plan);
                let of_one = factorize(kind, Devices::Fleet(&fleet), &pattern, &levels, &plan);
                let label = format!("engine {kind} seed {seed}");
                assert_eq!(one.time, of_one.time, "{label}: simulated time");
                assert_eq!(one.stats, of_one.stats, "{label}: stats delta");
                assert_eq!(
                    gpu.stats(),
                    fleet.device(0).stats(),
                    "{label}: device stats"
                );
                assert_eq!(one.mode_mix, of_one.mode_mix, "{label}: mode mix");
                assert_eq!(
                    (one.probes, one.merge_steps, one.batches, one.gemm_tiles),
                    (
                        of_one.probes,
                        of_one.merge_steps,
                        of_one.batches,
                        of_one.gemm_tiles
                    ),
                    "{label}: counters"
                );
                assert_eq!(one.m_limit, of_one.m_limit, "{label}: dense M");
                assert_eq!(bits(&one), bits(&of_one), "{label}: value bits");
                assert_eq!(fleet.stats().interconnect.exchanges, 0);
            }
        }
    }

    #[test]
    fn fleet_matches_single_device_bits_for_every_engine_and_count() {
        let (pattern, levels) = setup(10, 50, 4, 71);
        let plan = BlockPlan::detect(&pattern, &PivotCache::build(&pattern), 0.5);
        let single_gpu = Gpu::new(GpuConfig::v100());
        let single = factorize(1, Devices::One(&single_gpu), &pattern, &levels, &plan);
        for k in [1, 2, 4, 8] {
            for kind in 0..4 {
                let fleet = DeviceFleet::new(k, GpuConfig::v100());
                let out = factorize(kind, Devices::Fleet(&fleet), &pattern, &levels, &plan);
                assert_eq!(
                    bits(&single),
                    bits(&out),
                    "engine {kind} k={k} must be bit-identical"
                );
                assert_eq!(fleet.n_alive(), k);
            }
        }
    }

    #[test]
    fn fleet_scaling_reduces_makespan_and_prices_exchange() {
        // Wide levels (2048 chains) so a single device is wave-limited, and
        // scaled launch/interconnect latencies so per-level compute — the
        // part the fleet actually divides — dominates the fixed overheads,
        // as it does at production matrix sizes.
        let (pattern, levels) = setup(2048, 10, 6, 72);
        let cost = CostModel::default().scaled_latencies(10);
        let f1 = DeviceFleet::with_cost(1, GpuConfig::v100(), cost.clone());
        let one =
            factorize_fleet_merge(&f1, &pattern, &levels, &NOOP, PivotRule::Exact).expect("k=1");
        let f4 = DeviceFleet::with_cost(4, GpuConfig::v100(), cost);
        let four =
            factorize_fleet_merge(&f4, &pattern, &levels, &NOOP, PivotRule::Exact).expect("k=4");
        assert!(
            four.outcome.time.as_ns() < one.outcome.time.as_ns(),
            "4 devices {} must beat 1 device {}",
            four.outcome.time,
            one.outcome.time
        );
        assert_eq!(f1.stats().interconnect.exchanges, 0);
        let ic = f4.stats().interconnect;
        assert!(ic.exchanges > 0, "level barriers must price the exchange");
        assert!(ic.bytes > 0);
    }

    #[test]
    fn dead_device_reshards_mid_phase_bit_identically() {
        let (pattern, levels) = setup(8, 50, 4, 73);
        let single_gpu = Gpu::new(GpuConfig::v100());
        let single = factorize_gpu_merge(&single_gpu, &pattern, &levels).expect("single");
        // Device 1 loses its launch path after 3 successful level chunks.
        let plans =
            gplu_sim::FaultPlan::parse_fleet("dev=1:badlaunch:numeric_merge=4:persistent", 4)
                .expect("plans");
        let f = DeviceFleet::with_fault_plans(4, GpuConfig::v100(), CostModel::default(), &plans);
        let out = factorize_fleet_merge(&f, &pattern, &levels, &NOOP, PivotRule::Exact)
            .expect("fleet survives");
        assert_eq!(out.died, vec![1]);
        assert!(out.resharded_cols > 0);
        assert_eq!(f.n_alive(), 3);
        assert_eq!(single.lu.vals, out.outcome.lu.vals, "bit-identical");
    }
}
