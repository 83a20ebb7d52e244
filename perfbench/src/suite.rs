//! `cold_suite` and `fleet4_cold`: one caller runs factorize → gate →
//! solve over a fixed corpus, in whole passes, back to back.

use crate::accounting::{OpLog, Window};
use crate::corpus::{Input, FLEET_DEVICES};
use crate::layers::Layers;
use crate::spans::Tracer;
use crate::stage::{self, same_bits, GATE_THRESHOLD, SOLVE_TOL};
use crate::sys;
use gplu_core::{LuFactorization, LuOptions};
use gplu_sim::DeviceFleet;
use gplu_sparse::verify::check_solution;
use gplu_sparse::Csc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which pipeline the corpus runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `LuFactorization::compute` on one device.
    Single,
    /// `LuFactorization::compute_fleet` on a [`FLEET_DEVICES`]-device fleet.
    Fleet,
}

/// An untraced measurement, plus what the traced run checks against.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Operation outcomes.
    pub log: OpLog,
    /// Wall seconds of the timed passes.
    pub wall_s: f64,
    /// One window per pass.
    pub windows: Vec<Window>,
    /// Factors of the first operation on each input.
    pub factors: Vec<Option<Csc>>,
    /// Simulated total of the first operation on each input, ms.
    pub sim_first_ms: Vec<f64>,
    /// One-device simulated totals per input, ms (fleet only).
    pub single_ms: Vec<f64>,
}

impl Untraced {
    /// `(1-device simulated total ÷ k-device simulated total) ÷ k` over
    /// the corpus. It is computed from whole-phase simulated totals:
    /// `FleetReport::per_device_ns` is sampled after the level barrier
    /// and reads equal on every device, so it cannot show imbalance.
    pub fn scaling_efficiency(&self, path: Path) -> f64 {
        let fleet: f64 = self.sim_first_ms.iter().sum();
        match path {
            Path::Single => 1.0,
            Path::Fleet if fleet > 0.0 => {
                self.single_ms.iter().sum::<f64>() / fleet / FLEET_DEVICES as f64
            }
            Path::Fleet => 0.0,
        }
    }
}

/// A traced measurement.
#[derive(Debug)]
pub struct Traced {
    /// Operation outcomes.
    pub log: OpLog,
    /// Wall seconds of the timed passes.
    pub wall_s: f64,
    /// The spans.
    pub tracer: Tracer,
    /// Counters and samples.
    pub layers: Layers,
}

/// Runs whole passes over `n` inputs until another pass would overrun
/// `seconds` (at least one pass). `op` gets the input index, an operation
/// id and the run's start. Returns the wall seconds taken and one
/// measurement window per pass.
fn passes(n: usize, seconds: f64, mut op: impl FnMut(usize, u64, Instant)) -> (f64, Vec<Window>) {
    let start = Instant::now();
    let mut windows: Vec<Window> = Vec::new();
    let mut cpu = sys::cpu_seconds().unwrap_or(0.0);
    loop {
        let pass_start = start.elapsed().as_secs_f64();
        for i in 0..n {
            op(i, (windows.len() * n + i) as u64, start);
        }
        let now_cpu = sys::cpu_seconds().unwrap_or(0.0);
        let elapsed = start.elapsed().as_secs_f64();
        windows.push(Window {
            start_s: pass_start,
            end_s: elapsed,
            cpu_s: now_cpu - cpu,
        });
        cpu = now_cpu;
        if elapsed + elapsed / windows.len() as f64 > seconds {
            return (elapsed, windows);
        }
    }
}

/// One untraced operation through the library's own entry points
/// (`compute` or `compute_fleet`).
fn op(input: &Input, path: Path) -> Result<(LuFactorization, f64), String> {
    let opts = LuOptions::default();
    let name = &input.name;
    let (f, gpu_storage, fleet_storage);
    let gpu = match path {
        Path::Single => {
            gpu_storage = input.gpu();
            f = LuFactorization::compute(&gpu_storage, &input.a, &opts);
            &gpu_storage
        }
        Path::Fleet => {
            fleet_storage = fleet_of(input, FLEET_DEVICES);
            f = LuFactorization::compute_fleet(&fleet_storage, &input.a, &opts);
            fleet_storage.device(0)
        }
    };
    let f = f.map_err(|e| format!("{name}: factorize: {e}"))?;
    let r = f.report.residual.unwrap_or(f64::INFINITY);
    if !r.is_finite() || r > GATE_THRESHOLD {
        return Err(format!(
            "{name}: gate residual {r:e} above {GATE_THRESHOLD:e}"
        ));
    }
    let plan = f.solve_plan();
    let (x, _) = f
        .solve_on_gpu(gpu, &plan, &input.b)
        .map_err(|e| format!("{name}: solve: {e}"))?;
    if !check_solution(&input.a, &x, &input.b, SOLVE_TOL) {
        return Err(format!("{name}: solution check failed"));
    }
    let sim_ms = f.report.total().as_ns() / 1e6;
    Ok((f, sim_ms))
}

fn fleet_of(input: &Input, devices: usize) -> DeviceFleet {
    DeviceFleet::with_cost(devices, input.config.clone(), input.cost.clone())
}

/// Untraced run: whole passes of [`op`], every factor checked against
/// the first one computed for its input; on the fleet path the first is
/// then checked against a one-device run made after timing stops.
pub fn untraced(inputs: &[Input], path: Path, seconds: f64) -> Untraced {
    let mut u = Untraced {
        factors: vec![None; inputs.len()],
        sim_first_ms: vec![0.0; inputs.len()],
        ..Untraced::default()
    };
    (u.wall_s, u.windows) = passes(inputs.len(), seconds, |i, _, start| {
        let t0 = Instant::now();
        match op(&inputs[i], path) {
            Ok((f, sim_ms)) => {
                let done_at = start.elapsed().as_secs_f64();
                u.log
                    .complete(t0.elapsed().as_secs_f64() * 1e3, sim_ms, done_at);
                match &u.factors[i] {
                    Some(first) if !same_bits(first, &f.lu) => u
                        .log
                        .fail_completed(format!("{}: factors differ between runs", inputs[i].name)),
                    Some(_) => {}
                    None => {
                        u.sim_first_ms[i] = sim_ms;
                        u.factors[i] = Some(f.lu);
                    }
                }
            }
            Err(e) => u.log.fail(e),
        }
    });
    if path == Path::Fleet {
        let opts = LuOptions::default();
        for (i, input) in inputs.iter().enumerate() {
            let one = fleet_of(input, 1);
            match LuFactorization::compute_fleet(&one, &input.a, &opts) {
                Ok(f) => {
                    u.single_ms.push(f.report.total().as_ns() / 1e6);
                    if u.factors[i].as_ref().is_some_and(|k| !same_bits(k, &f.lu)) {
                        u.log.fail_completed(format!(
                            "{}: {FLEET_DEVICES}-device factors differ from 1 device",
                            input.name
                        ));
                    }
                }
                Err(e) => u
                    .log
                    .fail(format!("{}: 1-device reference: {e}", input.name)),
            }
        }
    }
    u
}

/// Traced run: whole passes of the staged operation ([`stage::single`]
/// or [`stage::fleet`]), each checked bit for bit against the untraced
/// run's factors for the same input.
pub fn traced(inputs: &[Input], path: Path, seconds: f64, reference: &Untraced) -> Traced {
    let mut tracer = Tracer::new(Instant::now());
    let mut layers = Layers::default();
    let mut log = OpLog::default();
    let (wall_s, _) = passes(inputs.len(), seconds, |i, id, start| {
        let input = &inputs[i];
        let span = tracer.begin("op", id);
        let t0 = Instant::now();
        let out = match path {
            Path::Single => stage::single(input, &mut tracer, id, &mut layers),
            Path::Fleet => {
                let fleet = fleet_of(input, FLEET_DEVICES);
                stage::fleet(input, &fleet, &mut tracer, id, &mut layers)
            }
        };
        tracer.end(span);
        match out {
            Ok(s) => {
                let done_at = start.elapsed().as_secs_f64();
                log.complete(t0.elapsed().as_secs_f64() * 1e3, s.sim_ms, done_at);
                if !reference.factors[i]
                    .as_ref()
                    .is_some_and(|r| same_bits(r, &s.lu))
                {
                    log.fail_completed(format!(
                        "{}: staged factors differ from the untraced run's",
                        input.name
                    ));
                }
            }
            Err(e) => log.fail(e),
        }
    });
    if path == Path::Fleet {
        let ops = log.wall_ms.len() as f64;
        let passes = ops / inputs.len() as f64;
        layers.add(
            "fleet.single_sim_ms",
            reference.single_ms.iter().sum::<f64>() * passes,
        );
    }
    Traced {
        log,
        wall_s,
        tracer,
        layers,
    }
}

/// Per-layer metrics of a traced corpus run: per-operation means of
/// self times and counters, maxima where a maximum is the claim.
pub fn layer_metrics(t: &Traced) -> BTreeMap<&'static str, f64> {
    let ops = t.log.wall_ms.len().max(1) as f64;
    let own = t.tracer.self_by_name();
    let wall = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e6 / ops;
    let mut out = BTreeMap::new();
    for (metric, span) in stage::LAYER_SPANS {
        out.insert(metric, wall(span));
    }
    out.insert("op.self_ms", wall("op"));
    for metric in crate::catalog::PER_LAYER.iter().map(|m| m.name) {
        let sum = t.layers.sum(metric);
        if sum != 0.0 {
            out.insert(metric, sum / ops);
        }
    }
    out.insert("gate.residual_max", t.layers.maximum("gate.residual_max"));
    out
}
