//! The repository benchmark. One command runs one named workload with a
//! seed:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing.
//! `--trace 1` makes an untraced run, then a separate traced run that
//! times every layer from outside by wrapping the calls into each
//! module's public functions, and reports the per-layer metrics. The
//! last line of standard output is one JSON object; the lines before it
//! print every metric by name with its unit. See `README.md` beside this
//! file for the workloads and the metric → layer table.

mod accounting;
mod catalog;
mod corpus;
mod layers;
mod serve;
mod spans;
mod stage;
mod stats;
mod suite;
mod sys;

use accounting::{OpLog, Window};
use catalog::{Metric, END_TO_END, PER_LAYER};
use gplu_server::JobSpec;
use gplu_trace::json::JsonValue;
use serve::ServeSpec;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use suite::Path;

/// Set-ups made per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Where spans and the disk tier's files go, relative to the directory
/// the benchmark runs in.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

#[derive(Clone, Copy)]
enum Workload {
    Suite(Path),
    Serve(ServeSpec),
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "cold_suite" => Workload::Suite(Path::Single),
        "fleet4_cold" => Workload::Suite(Path::Fleet),
        "serve_hot" => Workload::Serve(serve::HOT),
        "serve_spill" => Workload::Serve(serve::SPILL),
        _ => return None,
    })
}

/// A workload's inputs, plus the started service for the serve workloads.
enum Setup {
    Corpus(Path, Vec<corpus::Input>),
    Serve(ServeSpec, Vec<JobSpec>, Box<serve::Env>),
}

fn set_up(w: Workload, seed: u64, out: &std::path::Path) -> Result<Setup, String> {
    Ok(match w {
        Workload::Suite(Path::Single) => Setup::Corpus(Path::Single, corpus::cold_corpus(seed)),
        Workload::Suite(Path::Fleet) => Setup::Corpus(Path::Fleet, corpus::fleet_corpus(seed)),
        Workload::Serve(spec) => {
            let jobs = corpus::job_stream(seed, spec.shape);
            let env = serve::start(&jobs, &spec, out)?;
            Setup::Serve(spec, jobs, Box::new(env))
        }
    })
}

/// Operation outcomes and timings of one untraced run.
struct Run {
    log: OpLog,
    wall_s: f64,
    windows: Vec<Window>,
    scaling_efficiency: f64,
}

fn end_to_end(run: &Run, setup_s: f64) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let log = &run.log;
    let w = log.windowed(&run.windows);
    let mut m = BTreeMap::new();
    m.insert("throughput", w.throughput);
    m.insert("latency_p50_ms", w.latency_p50_ms);
    m.insert("latency_tail_ms", w.latency_tail_ms);
    m.insert("cpu_ms_per_op", w.cpu_ms_per_op);
    m.insert("sim_ms_per_op", log.sim_ms_per_op());
    m.insert("scaling_efficiency", run.scaling_efficiency);
    m.insert("peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0));
    m.insert("setup_s", setup_s);
    let mut notes = vec![format!(
        "failed_fraction {:.6} ratio ({} failed of {} attempted, {} rejected)",
        log.failed_fraction(),
        log.failed,
        log.attempted,
        log.rejected
    )];
    notes.push(format!(
        "{} windows over {:.1} s; wall figures are medians over windows",
        w.windows, run.wall_s
    ));
    if let Some((q1, q3)) = w.throughput_quartiles {
        notes.push(format!(
            "throughput per window: quartiles {q1:.4} .. {q3:.4} ops/s"
        ));
    }
    if let Some(t) = w.tail {
        notes.push(format!(
            "latency_tail_ms is p{} per window ({} samples, {} beyond it, in a middle window)",
            t.percentile, t.samples, t.beyond
        ));
    }
    (m, notes)
}

fn print_metrics(title: &str, list: &[Metric], values: &BTreeMap<&'static str, f64>) {
    println!("{title}");
    for m in list {
        match values.get(m.name) {
            Some(v) => println!(
                "  {:<28} {:>16.6} {:<6} ({} is better)",
                m.name,
                v,
                m.unit,
                m.better.as_str()
            ),
            None => println!("  {:<28} {:>16} {}", m.name, "n/a (0)", m.unit),
        }
    }
}

fn result_line(
    log: &OpLog,
    list: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = JsonValue::obj();
    for m in list {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", m.name));
        }
        metrics = metrics.set(m.name, JsonValue::obj().set("value", v).set("unit", m.unit));
    }
    Ok(JsonValue::obj()
        .set("correct", log.failed == 0)
        .set("attempted", log.attempted)
        .set("failed", log.failed)
        .set("metrics", metrics)
        .to_compact())
}

fn run_untraced(setup: &Setup, seconds: f64) -> (Run, Option<suite::Untraced>) {
    match setup {
        Setup::Corpus(path, inputs) => {
            let path = *path;
            let mut u = suite::untraced(inputs, path, seconds);
            let run = Run {
                log: std::mem::take(&mut u.log),
                wall_s: u.wall_s,
                windows: std::mem::take(&mut u.windows),
                scaling_efficiency: u.scaling_efficiency(path),
            };
            (run, Some(u))
        }
        Setup::Serve(_, jobs, env) => {
            let m = serve::measure(env, jobs, seconds, false);
            let run = Run {
                log: m.log,
                wall_s: m.wall_s,
                windows: m.windows,
                scaling_efficiency: 1.0,
            };
            (run, None)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                catalog::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("usage error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match run(&args, w) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, w: Workload) -> Result<(), String> {
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    if !args.trace {
        let mut setup_times = Vec::with_capacity(SETUPS);
        let mut setup = None;
        for _ in 0..SETUPS {
            // The previous set-up (and its service) is torn down first,
            // outside the timed window.
            drop(setup.take());
            let t0 = Instant::now();
            setup = Some(set_up(w, args.seed, &out)?);
            setup_times.push(t0.elapsed().as_secs_f64());
        }
        let setup = setup.expect("at least one set-up");
        let (run, _) = run_untraced(&setup, args.seconds);
        drop(setup);
        let (values, notes) = end_to_end(&run, stats::median(&setup_times));
        print_metrics("end-to-end (untraced)", &END_TO_END, &values);
        for n in notes.iter().chain(&run.log.reasons) {
            println!("  {n}");
        }
        println!("{}", result_line(&run.log, &END_TO_END, &values)?);
        return Ok(());
    }

    // Untraced run first: its wall time is the overhead baseline, and on
    // the corpus workloads its factors are what the traced run must match.
    // Each of the two runs gets half of `--seconds`.
    let half = args.seconds / 2.0;
    let t0 = Instant::now();
    let setup = set_up(w, args.seed, &out)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let (base, reference) = run_untraced(&setup, half);
    let (e2e, notes) = end_to_end(&base, setup_s);

    let (mut layers, mut log, traced_wall_per_op, tracer) = match setup {
        Setup::Corpus(path, inputs) => {
            let reference = reference.expect("corpus runs keep their factors");
            let t = suite::traced(&inputs, path, half, &reference);
            let values = suite::layer_metrics(&t);
            let per_op = t.wall_s / t.log.attempted.max(1) as f64;
            (values, t.log, per_op, t.tracer)
        }
        Setup::Serve(spec, jobs, env) => {
            // A fresh, warmed service: the untraced run already filled
            // the first one's cache with this stream.
            drop(env);
            let env = serve::start(&jobs, &spec, &out)?;
            let mut m = serve::measure(&env, &jobs, half, true);
            drop(env);
            let mut tracer = m.tracer.take().expect("traced loop keeps spans");
            let mut log = std::mem::take(&mut m.log);
            let replayed = serve::replay(&jobs, &m, &mut tracer, &mut log);
            let values = serve::layer_metrics(&m, &replayed, &tracer);
            let per_op = stats::mean(&log.wall_ms) / 1e3;
            (values, log, per_op, tracer)
        }
    };
    let base_per_op = match w {
        Workload::Suite(_) => base.wall_s / base.log.attempted.max(1) as f64,
        Workload::Serve(_) => stats::mean(&base.log.wall_ms) / 1e3,
    };
    layers.insert(
        "trace.overhead_fraction",
        if base_per_op > 0.0 {
            traced_wall_per_op / base_per_op - 1.0
        } else {
            0.0
        },
    );
    log.merge(base.log);
    layers.insert("failed_fraction", log.failed_fraction());
    write_spans(&tracer, &out, &args.workload, args.seed);

    print_metrics("end-to-end (untraced run)", &END_TO_END, &e2e);
    for n in &notes {
        println!("  {n}");
    }
    print_metrics("per layer (traced run)", &PER_LAYER, &layers);
    for r in &log.reasons {
        println!("  failure: {r}");
    }
    println!("{}", result_line(&log, &PER_LAYER, &layers)?);
    Ok(())
}

/// Writes the traced run's spans next to the benchmark's other output.
fn write_spans(tracer: &Tracer, out: &std::path::Path, workload: &str, seed: u64) {
    let path = out.join(format!("spans-{workload}-seed{seed}.json"));
    if let Err(e) = std::fs::write(&path, tracer.to_json().to_compact()) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
