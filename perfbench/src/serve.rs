//! `serve_hot` and `serve_spill`: a one-worker `SolverService` driven by
//! two closed-loop clients. Each client submits its next job only after
//! the previous result returns, as a transient-simulation caller waits on
//! each solve.

use crate::accounting::{OpLog, Window};
use crate::corpus::{Input, StreamShape};
use crate::layers::Layers;
use crate::spans::Tracer;
use crate::stage::{self, same_bits, GATE_THRESHOLD, SOLVE_TOL};
use crate::stats;
use crate::sys;
use gplu_core::{decode_plan, encode_plan, pattern_fingerprint, GpluError, LuFactorization};
use gplu_server::{
    CacheCounters, ExecTier, JobKind, JobResult, JobSpec, ServiceConfig, SolverService,
    StatsSnapshot,
};
use gplu_sparse::verify::check_solution;
use gplu_sparse::Csc;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Length of a measurement window, s. A trailing part-window shorter
/// than this is not measured.
pub const WINDOW_S: f64 = 1.0;
/// Jobs replayed per tier in the traced run.
pub const REPLAYS_PER_TIER: usize = 6;

/// One service workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// The job stream.
    pub shape: StreamShape,
    /// Device-tier budget (`None`: the service default).
    pub device_budget: Option<u64>,
    /// Host-tier budget (`None`: the service default).
    pub host_budget: Option<u64>,
    /// Attach a disk tier in a fresh directory.
    pub disk: bool,
}

/// `serve_hot`: three hot patterns, default budgets; the working set
/// fits the device tier. The stream outlasts a 20 s run.
pub const HOT: ServeSpec = ServeSpec {
    shape: StreamShape {
        hot_patterns: 3,
        jobs: 8000,
    },
    device_budget: None,
    host_budget: None,
    disk: false,
};

/// `serve_spill`: 24 hot patterns over a 1 MB device tier and a 4 MB
/// host tier with a disk tier behind them. Its jobs are larger and
/// slower; the stream outlasts a 20 s run.
pub const SPILL: ServeSpec = ServeSpec {
    shape: StreamShape {
        hot_patterns: 24,
        jobs: 3000,
    },
    device_budget: Some(1 << 20),
    host_budget: Some(4 << 20),
    disk: true,
};

/// A started, warmed service. Dropping it drains and stops the service
/// and removes its disk directory.
pub struct Env {
    svc: Option<SolverService>,
    dir: Option<PathBuf>,
    stats0: StatsSnapshot,
    counters0: CacheCounters,
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(svc) = self.svc.take() {
            svc.drain();
            svc.shutdown();
        }
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Env {
    fn svc(&self) -> &SolverService {
        self.svc.as_ref().expect("service runs until drop")
    }
}

/// Starts the service (its disk tier, if any, under `out_dir`) and warms its cache: one factorize of
/// each hot pattern, in stream order, before timing starts.
pub fn start(jobs: &[JobSpec], spec: &ServeSpec, out_dir: &Path) -> Result<Env, String> {
    let dir = if spec.disk {
        let dir = out_dir.join(format!("disk-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Some(dir)
    } else {
        None
    };
    let defaults = ServiceConfig::default();
    let svc = SolverService::start(ServiceConfig {
        workers: 1,
        cache_budget_bytes: spec.device_budget.unwrap_or(defaults.cache_budget_bytes),
        host_cache_budget_bytes: spec.host_budget.unwrap_or(defaults.host_cache_budget_bytes),
        cache_dir: dir.clone(),
        ..defaults
    });
    let mut env = Env {
        svc: Some(svc),
        dir,
        stats0: StatsSnapshot::default(),
        counters0: CacheCounters::default(),
    };
    let mut seen = HashSet::new();
    for job in jobs.iter().filter(|j| j.hot) {
        if seen.insert(pattern_fingerprint(&job.matrix)) {
            let warm = JobSpec::new(job.matrix.clone(), JobKind::Factorize).hot();
            env.svc()
                .submit(warm)
                .and_then(|h| h.wait())
                .map_err(|e| format!("cache warm-up: {e}"))?;
        }
    }
    env.svc().drain();
    env.stats0 = env.svc().stats();
    env.counters0 = env.svc().cache_counters();
    Ok(env)
}

/// One completed job as the client saw it.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the stream.
    pub job: usize,
    /// Tier the service ran it on.
    pub tier: ExecTier,
    /// The service's queue wait, ns.
    pub queue_wait_ns: u64,
    /// The service's enqueue → done time, ns.
    pub wall_ns: u64,
    /// The service's solve time, ns (0 for factorize-only jobs).
    pub solve_wall_ns: u64,
    /// Whether the job returned solutions.
    pub solved: bool,
    /// Wall time of the `submit` call, ns.
    pub submit_ns: u64,
    /// The factors, kept on traced runs for the first
    /// [`REPLAYS_PER_TIER`] jobs of each tier a client sees (keeping
    /// every job's factors would inflate the process's memory).
    pub factors: Option<Arc<LuFactorization>>,
}

/// A closed-loop measurement.
pub struct Measured {
    /// Operation outcomes (one operation is one job, submit → result).
    pub log: OpLog,
    /// Wall seconds of the loop.
    pub wall_s: f64,
    /// One-second measurement windows over the loop.
    pub windows: Vec<Window>,
    /// Completed jobs, in no particular order.
    pub done: Vec<Done>,
    /// Service counters after warm-up and after the loop.
    pub stats: (StatsSnapshot, StatsSnapshot),
    /// Cache counters after warm-up and after the loop.
    pub counters: (CacheCounters, CacheCounters),
    /// Spans, when traced.
    pub tracer: Option<Tracer>,
}

/// Checks one result: the factors passed the residual gate and every
/// solution solves its system.
fn check(spec: &JobSpec, r: &JobResult) -> Result<(), String> {
    let resid = r.factorization.report.residual.unwrap_or(f64::INFINITY);
    if !resid.is_finite() || resid > GATE_THRESHOLD {
        return Err(format!("job {}: residual {resid:e}", r.id));
    }
    if let JobKind::Solve { rhs } = &spec.kind {
        let xs = r.solutions.as_deref().unwrap_or(&[]);
        if xs.len() != rhs.len() {
            return Err(format!(
                "job {}: {} of {} solutions",
                r.id,
                xs.len(),
                rhs.len()
            ));
        }
        for (x, b) in xs.iter().zip(rhs) {
            if !check_solution(&spec.matrix, x, b, SOLVE_TOL) {
                return Err(format!("job {}: solution check failed", r.id));
            }
        }
    }
    Ok(())
}

/// One client: takes the next job index until the stream or the time
/// runs out.
fn client(
    svc: &SolverService,
    jobs: &[JobSpec],
    next: &AtomicUsize,
    start: Instant,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> (OpLog, Vec<Done>) {
    let mut log = OpLog::default();
    let mut done = Vec::new();
    let mut kept = [0usize; 5];
    while start.elapsed().as_secs_f64() < seconds {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(spec) = jobs.get(i) else { break };
        let op = i as u64;
        let op_span = tracer.as_deref_mut().map(|t| t.begin("op", op));
        let t0 = Instant::now();
        let handle = svc.submit(spec.clone());
        let submit_ns = t0.elapsed().as_nanos() as u64;
        let admitted = tracer.as_deref().map(Tracer::now_ns);
        let outcome = handle.map(|h| h.wait());
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), op_span) {
            t.end(span);
            let end = t.spans()[span].end_ns;
            let begin = t.spans()[span].start_ns;
            let admitted = admitted.unwrap_or(begin);
            t.record("admission", op, Some(span), begin, admitted);
            if let Ok(Ok(r)) = &outcome {
                // The service reports its own intervals; lay them after
                // admission in the order they happen.
                let queued = (admitted + r.queue_wait_ns).min(end);
                let exec_ns = r.wall_ns.saturating_sub(r.queue_wait_ns + r.solve_wall_ns);
                let executed = (queued + exec_ns).min(end);
                t.record("queue", op, Some(span), admitted, queued);
                t.record("execute", op, Some(span), queued, executed);
                t.record(
                    "solve",
                    op,
                    Some(span),
                    executed,
                    (executed + r.solve_wall_ns).min(end),
                );
            }
        }
        match outcome {
            Err(e @ (GpluError::QueueFull { .. } | GpluError::LoadShed { .. })) => {
                log.reject(format!("job {i}: {e}"))
            }
            Err(e) | Ok(Err(e)) => log.fail(format!("job {i}: {e}")),
            Ok(Ok(r)) => match check(spec, &r) {
                Ok(()) => {
                    log.complete(wall_ms, r.sim_ns / 1e6, start.elapsed().as_secs_f64());
                    let keep = &mut kept[tier_key(r.tier)];
                    let factors = (tracer.is_some() && *keep < REPLAYS_PER_TIER).then(|| {
                        *keep += 1;
                        r.factorization
                    });
                    done.push(Done {
                        job: i,
                        tier: r.tier,
                        queue_wait_ns: r.queue_wait_ns,
                        wall_ns: r.wall_ns,
                        solve_wall_ns: r.solve_wall_ns,
                        solved: r.solutions.is_some(),
                        submit_ns,
                        factors,
                    });
                }
                Err(e) => log.fail(e),
            },
        }
    }
    (log, done)
}

/// Runs the closed loop for up to `seconds` (or until the stream ends).
pub fn measure(env: &Env, jobs: &[JobSpec], seconds: f64, traced: bool) -> Measured {
    let svc = env.svc();
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let mut tracers: Vec<Option<Tracer>> = (0..CLIENTS)
        .map(|_| traced.then(|| Tracer::new(epoch)))
        .collect();
    let mut windows = Vec::new();
    let start = Instant::now();
    let outs: Vec<(OpLog, Vec<Done>)> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .map(|t| {
                let next = &next;
                s.spawn(move || client(svc, jobs, next, start, seconds, t.as_mut()))
            })
            .collect();
        // This thread only marks window boundaries while the clients run.
        let mut cpu = sys::cpu_seconds().unwrap_or(0.0);
        let mut from = 0.0;
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(5));
            let now = start.elapsed().as_secs_f64();
            if now >= from + WINDOW_S {
                let now_cpu = sys::cpu_seconds().unwrap_or(0.0);
                windows.push(Window {
                    start_s: from,
                    end_s: now,
                    cpu_s: now_cpu - cpu,
                });
                (from, cpu) = (now, now_cpu);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut log = OpLog::default();
    let mut done = Vec::new();
    for (l, d) in outs {
        log.merge(l);
        done.extend(d);
    }
    let tracer = traced.then(|| {
        let mut all = Tracer::new(epoch);
        for t in tracers.into_iter().flatten() {
            all.absorb(t);
        }
        all
    });
    Measured {
        log,
        wall_s,
        windows,
        done,
        stats: (env.stats0.clone(), svc.stats()),
        counters: (env.counters0, svc.cache_counters()),
        tracer,
    }
}

fn tier_key(t: ExecTier) -> usize {
    match t {
        ExecTier::Cold => 0,
        ExecTier::Warm => 1,
        ExecTier::WarmHost => 2,
        ExecTier::WarmDisk => 3,
        ExecTier::CachedSolve => 4,
    }
}

/// Per-tier metric names, in [`tier_key`] order.
const TIERS: [(&str, &str); 5] = [
    ("execute.cold_ms_p50", "tier.cold.share"),
    ("execute.warm_ms_p50", "tier.warm.share"),
    ("execute.warm_host_ms_p50", "tier.warm_host.share"),
    ("execute.warm_disk_ms_p50", "tier.warm_disk.share"),
    ("execute.cached_solve_ms_p50", "tier.cached_solve.share"),
];

/// Replays sampled jobs outside the timed loop and checks their factors:
/// the staged cold pipeline ([`stage::single`]) and
/// `LuFactorization::compute` on the job's matrix, then the warm path through
/// `refactor_plan` → `refactorize`, and the plan through `encode_plan` →
/// `decode_plan` → `refactorize`. Every one of them must reproduce the
/// service's factors bit for bit; a job that does not counts as failed.
pub fn replay(jobs: &[JobSpec], m: &Measured, tracer: &mut Tracer, log: &mut OpLog) -> Layers {
    let mut layers = Layers::default();
    let mut per_tier = [0usize; 5];
    let mut order: Vec<(&Done, &Arc<LuFactorization>)> = m
        .done
        .iter()
        .filter_map(|d| Some((d, d.factors.as_ref()?)))
        .collect();
    order.sort_by_key(|(d, _)| d.job);
    for (d, factors) in order {
        let slot = &mut per_tier[tier_key(d.tier)];
        if *slot >= REPLAYS_PER_TIER {
            continue;
        }
        *slot += 1;
        let spec = &jobs[d.job];
        let name = format!("job {} ({})", d.job, d.tier.label());
        let input = Input::on_symbolic_profile(name, spec.matrix.clone());
        let op = (1u64 << 32) + d.job as u64;
        layers.add("replay.jobs", 1.0);
        let span = tracer.begin("replay", op);
        let out = replay_one(spec, &input, &factors.lu, tracer, op, &mut layers);
        tracer.end(span);
        if let Err(e) = out {
            log.fail_completed(format!("{}: {e}", input.name));
        }
    }
    layers
}

fn replay_one(
    spec: &JobSpec,
    input: &Input,
    want: &Csc,
    tracer: &mut Tracer,
    op: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let staged = stage::single(input, tracer, op, layers)?;
    if !same_bits(&staged.lu, want) {
        return Err("service factors differ from a cold staged factorization".into());
    }
    let cold = tracer.time("replay.cold", op, || {
        LuFactorization::compute(&input.gpu(), &input.a, &spec.opts)
    });
    let cold = cold.map_err(|e| format!("cold replay: {e}"))?;
    let plan = tracer.time("replay.plan", op, || {
        cold.refactor_plan(&input.a, &spec.opts)
    });
    let plan = plan.map_err(|e| format!("refactor_plan: {e}"))?;

    let t0 = Instant::now();
    let warm = tracer.time("refactor", op, || plan.refactorize(&input.gpu(), &input.a));
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm = warm.map_err(|e| format!("refactorize: {e}"))?;
    layers.sample("refactor.wall_ms_p50", warm_ms);
    layers.sample("refactor.sim_ms_p50", warm.report.total().as_ns() / 1e6);
    layers.add("refactor.merge_steps", warm.report.merge_steps as f64);
    layers.add("refactor.replays", 1.0);
    if !same_bits(&warm.lu, want) {
        return Err("warm replay differs from the service's factors".into());
    }

    let t0 = Instant::now();
    let snap = tracer.time("plan_codec.encode", op, || encode_plan(&plan));
    layers.sample("plan_codec.encode_us_p50", t0.elapsed().as_secs_f64() * 1e6);
    let t0 = Instant::now();
    let decoded = tracer.time("plan_codec.decode", op, || {
        decode_plan(&snap, plan.pattern_fp())
    });
    layers.sample("plan_codec.decode_us_p50", t0.elapsed().as_secs_f64() * 1e6);
    let again = decoded
        .and_then(|p| p.refactorize(&input.gpu(), &input.a))
        .map_err(|e| format!("decoded plan: {e}"))?;
    if !same_bits(&again.lu, want) {
        return Err("decoded plan replay differs from the service's factors".into());
    }
    Ok(())
}

/// Per-layer metrics of a traced service run and its replays.
pub fn layer_metrics(
    m: &Measured,
    replayed: &Layers,
    tracer: &Tracer,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let done = &m.done;
    let ms = |ns: u64| ns as f64 / 1e6;

    let submit_us: Vec<f64> = done.iter().map(|d| d.submit_ns as f64 / 1e3).collect();
    out.insert("admission.submit_us_p50", stats::median(&submit_us));
    out.insert("admission.rejected", m.log.rejected as f64);
    let waits: Vec<f64> = done.iter().map(|d| ms(d.queue_wait_ns)).collect();
    out.insert("queue.wait_ms_p50", stats::median(&waits));
    out.insert(
        "queue.wait_ms_tail",
        stats::tail(&waits).map_or(0.0, |t| t.value),
    );
    let (s0, s1) = &m.stats;
    out.insert("queue.max_depth", s1.max_depth as f64);

    let n = done.len().max(1) as f64;
    for (k, (exec_key, share_key)) in TIERS.iter().enumerate() {
        let exec: Vec<f64> = done
            .iter()
            .filter(|d| tier_key(d.tier) == k)
            .map(|d| ms(d.wall_ns.saturating_sub(d.queue_wait_ns + d.solve_wall_ns)))
            .collect();
        out.insert(*exec_key, stats::median(&exec));
        out.insert(*share_key, exec.len() as f64 / n);
    }
    let solves: Vec<f64> = done
        .iter()
        .filter(|d| d.solved)
        .map(|d| ms(d.solve_wall_ns))
        .collect();
    out.insert("solve.wall_ms_p50", stats::median(&solves));

    // Service and cache counters over the timed loop (warm-up excluded).
    let hot = s1.hot_jobs.saturating_sub(s0.hot_jobs) as f64;
    let hits = s1.hot_hits.saturating_sub(s0.hot_hits) as f64;
    out.insert(
        "cache.hot_hit_rate",
        if hot > 0.0 { hits / hot } else { 0.0 },
    );
    out.insert(
        "cache.plans_built",
        s1.plans_built.saturating_sub(s0.plans_built) as f64,
    );
    let (c0, c1) = &m.counters;
    for (k, v1, v0) in [
        ("cache.hits", c1.hits, c0.hits),
        ("cache.host_hits", c1.host_hits, c0.host_hits),
        ("cache.disk_hits", c1.disk_hits, c0.disk_hits),
        ("cache.misses", c1.misses, c0.misses),
        ("cache.evictions", c1.evictions, c0.evictions),
        ("cache.demotions", c1.demotions, c0.demotions),
        ("cache.promotions", c1.promotions, c0.promotions),
        ("cache.host_evictions", c1.host_evictions, c0.host_evictions),
        ("disk.writes", c1.disk_writes, c0.disk_writes),
        (
            "disk.write_failures",
            c1.disk_write_failures,
            c0.disk_write_failures,
        ),
        ("disk.rejects", c1.disk_rejects, c0.disk_rejects),
    ] {
        out.insert(k, v1.saturating_sub(v0) as f64);
    }

    // Pipeline layers, from the staged cold replays.
    let replays = replayed.sum("replay.jobs").max(1.0);
    let own = tracer.self_by_name();
    let wall = |span: &str| own.get(span).copied().unwrap_or(0) as f64 / 1e6;
    for (metric, span) in stage::LAYER_SPANS {
        out.insert(metric, wall(span) / replays);
    }
    out.insert("op.self_ms", wall("op") / n);
    for metric in crate::catalog::PER_LAYER.iter().map(|m| m.name) {
        let sum = replayed.sum(metric);
        if sum != 0.0 && !out.contains_key(metric) {
            out.insert(metric, sum / replays);
        }
    }
    let warm_replays = replayed.sum("refactor.replays").max(1.0);
    out.insert(
        "refactor.merge_steps",
        replayed.sum("refactor.merge_steps") / warm_replays,
    );
    for key in [
        "refactor.wall_ms_p50",
        "refactor.sim_ms_p50",
        "plan_codec.encode_us_p50",
        "plan_codec.decode_us_p50",
    ] {
        out.insert(key, replayed.p50(key));
    }
    out.insert("gate.residual_max", replayed.maximum("gate.residual_max"));
    out
}
