//! One factorize → gate → solve operation rebuilt from the layers' public
//! calls, each call wrapped in a span. This is the traced counterpart of
//! `LuFactorization::compute` (single device) and `compute_fleet`
//! (fleet), making the same choices they make under default options.

use crate::corpus::Input;
use crate::layers::Layers;
use crate::spans::Tracer;
use gplu_core::{preprocess, PreprocessOptions, ResidualGate};
use gplu_numeric::{
    factorize_fleet_blocked, factorize_fleet_dense, factorize_fleet_merge,
    factorize_gpu_blocked_traced, factorize_gpu_dense, factorize_gpu_merge, solve_gpu, BlockPlan,
    NumericOutcome, PivotCache, PivotRule, TriSolvePlan, DEFAULT_BLOCK_THRESHOLD,
};
use gplu_schedule::{levelize_gpu, DepGraph, Levels};
use gplu_sim::{DeviceFleet, Gpu, GpuStatsSnapshot, SimTime};
use gplu_sparse::convert::csr_to_csc;
use gplu_sparse::verify::{check_solution, residual_probe};
use gplu_sparse::{Csc, Permutation, Val};
use gplu_symbolic::{symbolic_fleet, symbolic_ooc_dynamic, Partition};
use gplu_trace::NOOP;

/// Largest accepted relative residual (the pipeline's default gate).
pub const GATE_THRESHOLD: f64 = 1e-6;
/// Tolerance of the solution check, `max|Ax - b| / max|b|`.
pub const SOLVE_TOL: f64 = 1e-8;

/// The spans [`single`] and [`fleet`] open, with the per-layer wall
/// metric each one's self time feeds.
pub const LAYER_SPANS: [(&str, &str); 6] = [
    ("preprocess.wall_ms", "preprocess"),
    ("symbolic.wall_ms", "symbolic"),
    ("levelize.wall_ms", "levelize"),
    ("numeric.wall_ms", "numeric"),
    ("gate.wall_ms", "gate"),
    ("trisolve.wall_ms", "trisolve"),
];

/// Whether two factors have the same pattern and the same value bits.
pub fn same_bits(a: &Csc, b: &Csc) -> bool {
    a.col_ptr == b.col_ptr
        && a.row_idx == b.row_idx
        && a.vals.len() == b.vals.len()
        && a.vals
            .iter()
            .zip(&b.vals)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one staged operation produced.
#[derive(Debug)]
pub struct Staged {
    /// Combined factor.
    pub lu: Csc,
    /// Simulated factorization time (preprocess through numeric), ms.
    pub sim_ms: f64,
}

/// The numeric engine the pipeline's `Auto` format picks.
enum Engine {
    Dense,
    Merge,
    Blocked(BlockPlan),
}

/// `Auto`'s choice: dense unless the paper's switch criterion fires,
/// then blocked when the cost model's BLAS-3 crossover holds, else
/// merge. Block detection is priced on `gpu` as the pipeline prices it.
fn auto_engine(gpu: &Gpu, n: usize, pattern: &Csc) -> Engine {
    if !gpu.config().should_use_sparse_format(n) {
        return Engine::Dense;
    }
    let cache = PivotCache::build(pattern);
    let plan = BlockPlan::detect(pattern, &cache, DEFAULT_BLOCK_THRESHOLD);
    gpu.advance(SimTime::from_ns(gpu.cost().cpu_parallel_ns(
        2 * pattern.nnz() as u64 + pattern.n_cols() as u64,
    )));
    let fill_density = pattern.nnz() as f64 / pattern.n_cols().max(1) as f64;
    if gpu
        .cost()
        .blocked_crossover(fill_density, plan.mean_width())
    {
        Engine::Blocked(plan)
    } else {
        Engine::Merge
    }
}

fn engine_key(e: &Engine) -> &'static str {
    match e {
        Engine::Dense => "numeric.dense_calls",
        Engine::Merge => "numeric.merge_calls",
        Engine::Blocked(_) => "numeric.blocked_calls",
    }
}

fn ms(t: SimTime) -> f64 {
    t.as_ns() / 1e6
}

/// Records the numeric counters every engine reports.
fn record_numeric(layers: &mut Layers, out: &NumericOutcome) {
    layers.add("numeric.sim_ms", ms(out.time));
    layers.add("numeric.batches", out.batches as f64);
    layers.add("numeric.merge_steps", out.merge_steps as f64);
    layers.add("numeric.gemm_tiles", out.gemm_tiles as f64);
    layers.add("numeric.mode_a", out.mode_mix.a as f64);
    layers.add("numeric.mode_b", out.mode_mix.b as f64);
    layers.add("numeric.mode_c", out.mode_mix.c as f64);
}

/// Records the priced device counters of one operation.
fn record_gpu(layers: &mut Layers, s: &GpuStatsSnapshot) {
    layers.add("gpu.kernels_host", s.kernels_host as f64);
    layers.add("gpu.kernels_device", s.kernels_device as f64);
    layers.add("gpu.h2d_bytes", s.h2d_bytes as f64);
    layers.add("gpu.d2h_bytes", s.d2h_bytes as f64);
    layers.add("gpu.kernel_sim_ms", ms(s.kernel_time));
    layers.add("gpu.xfer_sim_ms", ms(s.xfer_time));
}

fn record_levels(layers: &mut Layers, levels: &Levels, time: SimTime) {
    layers.add("levelize.sim_ms", ms(time));
    layers.add("levelize.levels", levels.n_levels() as f64);
    layers.add("levelize.max_width", levels.max_width() as f64);
}

/// Gate and solve, shared by both staged paths: the residual probe on
/// the factors, then the level-scheduled triangular solve on `gpu`, and
/// the solution check against the input.
#[allow(clippy::too_many_arguments)]
fn gate_and_solve(
    input: &Input,
    gpu: &Gpu,
    pre: &gplu_sparse::Csr,
    p_row: &Permutation,
    p_col: &Permutation,
    lu: &Csc,
    tr: &mut Tracer,
    op: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let probes = ResidualGate::default().probes.max(1);
    let r = tr.time("gate", op, || residual_probe(pre, lu, probes));
    layers.max("gate.residual_max", r);
    if !r.is_finite() || r > GATE_THRESHOLD {
        return Err(format!(
            "{}: gate residual {r:e} above {GATE_THRESHOLD:e}",
            input.name
        ));
    }
    let solve = tr.begin("trisolve", op);
    let plan = TriSolvePlan::new(lu);
    let sol = solve_gpu(gpu, lu, &plan, &p_row.permute_vec(&input.b));
    tr.end(solve);
    let sol = sol.map_err(|e| format!("{}: trisolve: {e}", input.name))?;
    layers.add("trisolve.sim_ms", ms(sol.time));
    let x: Vec<Val> = (0..sol.x.len()).map(|i| sol.x[p_col.apply(i)]).collect();
    if !check_solution(&input.a, &x, &input.b, SOLVE_TOL) {
        return Err(format!("{}: solution check failed", input.name));
    }
    Ok(())
}

/// Single-device operation: preprocess → out-of-core dynamic symbolic →
/// dependency graph + GPU levelization → the `Auto` numeric engine →
/// residual gate → triangular solve.
pub fn single(
    input: &Input,
    tr: &mut Tracer,
    op: u64,
    layers: &mut Layers,
) -> Result<Staged, String> {
    let name = &input.name;
    let gpu = input.gpu();
    let pre = tr.time("preprocess", op, || {
        preprocess(&input.a, &PreprocessOptions::default(), gpu.cost())
    });
    let pre = pre.map_err(|e| format!("{name}: preprocess: {e}"))?;
    gpu.advance(pre.time);
    layers.add("preprocess.sim_ms", ms(pre.time));

    let sym = tr.time("symbolic", op, || symbolic_ooc_dynamic(&gpu, &pre.matrix));
    let sym = sym.map_err(|e| format!("{name}: symbolic: {e}"))?;
    layers.add("symbolic.sim_ms", ms(sym.time));
    layers.add("symbolic.iterations", sym.num_iterations as f64);
    layers.add("symbolic.fill_nnz", sym.result.fill_nnz() as f64);

    let lv = tr.time("levelize", op, || {
        levelize_gpu(&gpu, &DepGraph::build(&sym.result.filled))
    });
    let lv = lv.map_err(|e| format!("{name}: levelize: {e}"))?;
    record_levels(layers, &lv.levels, lv.time);

    let span = tr.begin("numeric", op);
    let pattern = csr_to_csc(&sym.result.filled);
    let engine = auto_engine(&gpu, pre.matrix.n_rows(), &pattern);
    let out = match &engine {
        Engine::Dense => factorize_gpu_dense(&gpu, &pattern, &lv.levels),
        Engine::Merge => factorize_gpu_merge(&gpu, &pattern, &lv.levels),
        Engine::Blocked(plan) => {
            factorize_gpu_blocked_traced(&gpu, &pattern, &lv.levels, plan, &NOOP)
        }
    };
    tr.end(span);
    let out = out.map_err(|e| format!("{name}: numeric: {e}"))?;
    layers.add(engine_key(&engine), 1.0);
    record_numeric(layers, &out);
    let sim_ms = ms(pre.time + sym.time + lv.time + out.time);

    gate_and_solve(
        input,
        &gpu,
        &pre.matrix,
        &pre.p_row,
        &pre.p_col,
        &out.lu,
        tr,
        op,
        layers,
    )?;
    record_gpu(layers, &gpu.stats());
    Ok(Staged { lu: out.lu, sim_ms })
}

/// Fleet operation: preprocess → symbolic sharded by source-row range →
/// levelization on the lead device and a barrier → the `Auto` numeric
/// engine sharded by column range per level → gate → solve on the lead
/// device. Mirrors `compute_fleet` under default options.
pub fn fleet(
    input: &Input,
    fleet: &DeviceFleet,
    tr: &mut Tracer,
    op: u64,
    layers: &mut Layers,
) -> Result<Staged, String> {
    let name = &input.name;
    let lead = fleet.device(0);
    let pre = tr.time("preprocess", op, || {
        preprocess(&input.a, &PreprocessOptions::default(), lead.cost())
    });
    let pre = pre.map_err(|e| format!("{name}: preprocess: {e}"))?;
    for d in fleet.alive() {
        fleet.device(d).advance(pre.time);
    }
    layers.add("preprocess.sim_ms", ms(pre.time));

    let sym = tr.time("symbolic", op, || {
        symbolic_fleet(fleet, &pre.matrix, Partition::Blocked)
    });
    let sym = sym.map_err(|e| format!("{name}: fleet symbolic: {e}"))?;
    layers.add("symbolic.sim_ms", ms(sym.time));
    layers.add("fleet.symbolic_sim_ms", ms(sym.time));
    layers.add("symbolic.iterations", 1.0);
    layers.add("symbolic.fill_nnz", sym.result.fill_nnz() as f64);

    let lv = tr.time("levelize", op, || {
        let lv = levelize_gpu(lead, &DepGraph::build(&sym.result.filled));
        fleet.barrier();
        lv
    });
    let lv = lv.map_err(|e| format!("{name}: levelize: {e}"))?;
    record_levels(layers, &lv.levels, lv.time);

    let span = tr.begin("numeric", op);
    let pattern = csr_to_csc(&sym.result.filled);
    let engine = auto_engine(lead, pre.matrix.n_rows(), &pattern);
    fleet.barrier();
    let rule = PivotRule::Exact;
    let out = match &engine {
        Engine::Dense => factorize_fleet_dense(fleet, &pattern, &lv.levels, &NOOP, rule),
        Engine::Merge => factorize_fleet_merge(fleet, &pattern, &lv.levels, &NOOP, rule),
        Engine::Blocked(plan) => {
            factorize_fleet_blocked(fleet, &pattern, &lv.levels, plan, &NOOP, rule)
        }
    };
    tr.end(span);
    let out = out
        .map_err(|e| format!("{name}: fleet numeric: {e}"))?
        .outcome;
    layers.add(engine_key(&engine), 1.0);
    record_numeric(layers, &out);
    layers.add("fleet.numeric_sim_ms", ms(out.time));
    let sim_ms = ms(pre.time + sym.time + lv.time + out.time);

    gate_and_solve(
        input,
        lead,
        &pre.matrix,
        &pre.p_row,
        &pre.p_col,
        &out.lu,
        tr,
        op,
        layers,
    )?;
    let ic = fleet.stats().interconnect;
    layers.add("fleet.exchanges", ic.exchanges as f64);
    layers.add("fleet.exchange_bytes", ic.bytes as f64);
    layers.add("fleet.exchange_sim_ms", ms(ic.time));
    for g in fleet.devices() {
        record_gpu(layers, &g.stats());
    }
    Ok(Staged { lu: out.lu, sim_ms })
}
