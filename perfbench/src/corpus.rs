//! Seeded inputs for every workload. The benchmark's `--seed` reaches
//! every input; the program only ever sees the generated matrices and job
//! streams.
//!
//! On the corpus workloads the seed draws the *values* on a fixed
//! pattern ([`reseed_values`]): the pattern is what the workload was
//! chosen for (a Table 2 analog, the chain matrix, audikw_1), and it alone
//! sets the fill, the schedule and every simulated cost, so runs on
//! different seeds measure the same work with different numbers. The
//! service stream takes the seed whole: patterns, values and job order.

use gplu_bench::Prepared;
use gplu_core::pattern_fingerprint;
use gplu_server::{generate_workload, JobKind, JobSpec, WorkloadParams};
use gplu_sim::{CostModel, Gpu, GpuConfig};
use gplu_sparse::gen::mesh::{mesh, MeshParams};
use gplu_sparse::gen::random::banded_dominant;
use gplu_sparse::gen::suite::{frontier_pair, paper_suite};
use gplu_sparse::{Coo, Csr, Val};

/// SplitMix64 finalizer: derives independent generator seeds from the
/// benchmark seed and a per-input salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a of a name, the per-matrix salt.
fn salt(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Table 2 analogs in the cold corpus.
pub const COLD_SUITE: [&str; 5] = ["G7", "OT2", "R15", "MI", "GO"];
/// Scale divisor of the cold corpus analogs.
pub const COLD_SCALE: usize = 32;
/// Target dimension and density of the heavy-fill mesh.
pub const HEAVY_MESH: (usize, f64) = (4000, 6.0);
/// Block-banded chain matrix of the fleet workload: chains, chain length,
/// band (the `multi_gpu` bench's strong-scaling matrix).
pub const CHAINS: (usize, usize, usize) = (2048, 10, 6);
/// Scale divisor of the audikw_1 analog in the fleet workload (at 256
/// one fleet op takes seconds and a run holds too few passes to be steady).
pub const AUDIKW_SCALE: usize = 512;
/// Devices in the fleet workload.
pub const FLEET_DEVICES: usize = 4;

/// One corpus matrix with its right-hand side and the device it runs on.
#[derive(Debug, Clone)]
pub struct Input {
    /// Short name for logs.
    pub name: String,
    /// The matrix.
    pub a: Csr,
    /// Right-hand side `A · x_true`.
    pub b: Vec<Val>,
    /// Device profile of every simulated GPU this input runs on.
    pub config: GpuConfig,
    /// Cost model of those GPUs.
    pub cost: CostModel,
}

impl Input {
    /// An input on `config`/`cost`, with `x_true[j] = 1 + (j mod 7)/10`.
    pub fn new(name: String, a: Csr, config: GpuConfig, cost: CostModel) -> Input {
        let x: Vec<Val> = (0..a.n_cols())
            .map(|j| 1.0 + (j % 7) as f64 / 10.0)
            .collect();
        let b = a.spmv(&x);
        Input {
            name,
            a,
            b,
            config,
            cost,
        }
    }

    /// An input on [`GpuConfig::v100_symbolic_profile`] with the default
    /// cost model (the service's per-job device).
    pub fn on_symbolic_profile(name: String, a: Csr) -> Input {
        let config = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
        Input::new(name, a, config, CostModel::default())
    }

    /// A fresh simulated GPU for one operation.
    pub fn gpu(&self) -> Gpu {
        Gpu::with_cost(self.config.clone(), self.cost.clone())
    }
}

/// A uniform draw in `[0, 1)` from a SplitMix64 stream.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    (mix(*state, 0) >> 11) as f64 / (1u64 << 53) as f64
}

/// Share of off-diagonal entries [`reseed`] drops.
const THIN: f64 = 0.0005;

/// `a` redrawn from `seed` on (nearly) the same pattern: every row is
/// scaled by a factor in `[0.5, 2)`, each off-diagonal entry is shrunk by
/// a factor in `[0.75, 1]`, and a [`THIN`] share of off-diagonal entries
/// is dropped. Row diagonal dominance is kept, so the inputs stay
/// factorizable without pivoting. The pattern, which sets fill, schedule
/// and simulated cost, moves only slightly between seeds.
pub fn reseed(a: &Csr, seed: u64) -> Csr {
    let mut state = seed;
    let mut out = a.clone();
    out.col_idx.clear();
    out.vals.clear();
    for i in 0..a.n_rows() {
        let row_scale = 0.5 + 1.5 * unit(&mut state);
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            let mut v = a.vals[k] * row_scale;
            if a.col_idx[k] as usize != i {
                if unit(&mut state) < THIN {
                    continue;
                }
                v *= 0.75 + 0.25 * unit(&mut state);
            }
            out.col_idx.push(a.col_idx[k]);
            out.vals.push(v);
        }
        out.row_ptr[i + 1] = out.col_idx.len();
    }
    out
}

/// The `cold_suite` corpus: five Table 2 analogs sized for out-of-core
/// symbolic, plus one heavy-fill mesh.
pub fn cold_corpus(seed: u64) -> Vec<Input> {
    let suite = paper_suite();
    let mut out: Vec<Input> = COLD_SUITE
        .iter()
        .map(|abbr| {
            let entry = suite
                .iter()
                .find(|e| e.abbr == *abbr)
                .expect("cold corpus names Table 2 entries")
                .clone();
            let matrix = reseed(&entry.generate(COLD_SCALE), mix(seed, salt(entry.name)));
            let prep = Prepared {
                entry,
                matrix,
                scale: COLD_SCALE,
            };
            // Device sizing needs the exact fill: host symbolic on the
            // preprocessed matrix (part of set-up, not of any operation).
            // The symbolic intermediates exceed the device; the factor fits.
            let (_, fill) = gplu_bench::fill_size_of(&prep);
            let gpu = prep.gpu_symbolic(fill);
            let (config, cost) = (gpu.config().clone(), gpu.cost().clone());
            Input::new(abbr.to_string(), prep.matrix, config, cost)
        })
        .collect();
    let (n, density) = HEAVY_MESH;
    let a = mesh(&MeshParams::for_target(n, density, salt("mesh")));
    let a = reseed(&a, mix(seed, salt("mesh")));
    out.push(Input::on_symbolic_profile("mesh".into(), a));
    out
}

/// Block-diagonal matrix of `blocks` independent banded chains; every
/// chain contributes one column to each level, so the schedule is wide.
fn block_banded(blocks: usize, m: usize, band: usize, seed: u64) -> Csr {
    let mut coo = Coo::new(blocks * m, blocks * m);
    for b in 0..blocks {
        let base = b * m;
        let block = banded_dominant(m, band, mix(seed, b as u64));
        for i in 0..m {
            for (j, v) in block.row_iter(i) {
                coo.push(base + i, base + j, v);
            }
        }
    }
    gplu_sparse::gen::assemble_dominant(coo, 1.0)
}

/// The `fleet4_cold` corpus: the wide chain matrix and the audikw_1
/// analog, each on full V100 devices.
pub fn fleet_corpus(seed: u64) -> Vec<Input> {
    let (chains, chain_n, band) = CHAINS;
    let chain = block_banded(chains, chain_n, band, salt("chains"));
    let chain = reseed(&chain, mix(seed, salt("chains")));
    let aud = frontier_pair()
        .into_iter()
        .find(|e| e.abbr == "AUD")
        .expect("audikw_1 is in the frontier pair");
    let aud_a = reseed(&aud.generate(AUDIKW_SCALE), mix(seed, salt(aud.name)));
    let aud_cost = Prepared {
        entry: aud,
        matrix: Csr::identity(1),
        scale: AUDIKW_SCALE,
    }
    .cost();
    let v100 = GpuConfig::v100();
    vec![
        Input::new(
            "chains".into(),
            chain,
            v100.clone(),
            CostModel::default().scaled_latencies(10),
        ),
        Input::new("audikw".into(), aud_a, v100, aud_cost),
    ]
}

/// Shape of a service workload's job stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    /// Distinct hot circuit patterns.
    pub hot_patterns: usize,
    /// Jobs in the stream.
    pub jobs: usize,
}

/// Seed of the service stream's shape: which patterns, in which order.
const STREAM_SHAPE_SEED: u64 = 1;

/// The service job stream: hot circuit patterns with drifting values,
/// 5% cold one-offs, 15% of hot jobs as solves.
///
/// The stream's shape (patterns, job order, value versions) is fixed;
/// `seed` redraws every matrix through [`reseed`], keyed by its pattern,
/// so jobs that repeat a pattern still share the redrawn pattern and
/// jobs that repeat a (pattern, version) pair still repeat exactly: the
/// cache sees the same hits and misses under every seed, with other
/// numbers. Solve jobs get right-hand sides for the redrawn matrices.
pub fn job_stream(seed: u64, shape: StreamShape) -> Vec<JobSpec> {
    let mut jobs = generate_workload(&WorkloadParams {
        jobs: shape.jobs,
        hot_patterns: shape.hot_patterns,
        hot_fraction: 0.95,
        value_versions: 8,
        solve_fraction: 0.15,
        seed: STREAM_SHAPE_SEED,
        ..WorkloadParams::default()
    });
    for job in &mut jobs {
        let pattern = pattern_fingerprint(&job.matrix);
        job.matrix = reseed(&job.matrix, mix(seed, pattern));
        if let JobKind::Solve { rhs } = &mut job.kind {
            let x: Vec<Val> = (0..job.matrix.n_cols())
                .map(|j| 1.0 + (j % 7) as f64 / 10.0)
                .collect();
            *rhs = vec![job.matrix.spmv(&x)];
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = fleet_corpus(3);
        let b = fleet_corpus(3);
        let c = fleet_corpus(4);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.a.vals, y.a.vals, "{} must repeat under one seed", x.name);
            assert_eq!(x.a.col_idx, y.a.col_idx);
            assert_ne!(x.a.vals, z.a.vals, "{} must change with the seed", x.name);
            // Another seed keeps nearly the pattern the workload was
            // chosen for.
            assert_eq!(x.a.n_rows(), z.a.n_rows());
            let (nx, nz) = (x.a.nnz() as f64, z.a.nnz() as f64);
            assert!(
                (nx - nz).abs() <= 4.0 * THIN * nx,
                "{}: {nx} vs {nz}",
                x.name
            );
        }
    }

    #[test]
    fn job_streams_follow_the_seed() {
        let shape = StreamShape {
            hot_patterns: 3,
            jobs: 60,
        };
        let a = job_stream(11, shape);
        let b = job_stream(11, shape);
        let c = job_stream(12, shape);
        assert_eq!(a.len(), 60);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.matrix.vals == y.matrix.vals));
        assert!(a
            .iter()
            .zip(&c)
            .all(|(x, y)| x.matrix.vals != y.matrix.vals));
        // Repeats survive the redraw: every seed has as many distinct
        // patterns and distinct matrices as the other.
        let distinct = |jobs: &[JobSpec], fp: fn(&Csr) -> u64| {
            jobs.iter()
                .map(|j| fp(&j.matrix))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        for fp in [
            pattern_fingerprint as fn(&Csr) -> u64,
            gplu_core::matrix_fingerprint,
        ] {
            assert_eq!(distinct(&a, fp), distinct(&c, fp));
            assert!(distinct(&a, fp) < a.len(), "the stream repeats");
        }
    }

    #[test]
    fn cold_corpus_seeds_every_matrix() {
        let a = cold_corpus(1);
        let c = cold_corpus(2);
        assert_eq!(a.len(), COLD_SUITE.len() + 1);
        for (x, z) in a.iter().zip(&c) {
            assert_ne!(x.a.vals, z.a.vals, "{} ignores the seed", x.name);
            assert!(x.b.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn reseeded_values_keep_rows_dominant() {
        let a = gplu_sparse::gen::random::random_dominant(200, 5.0, 9);
        let b = reseed(&a, 42);
        assert_eq!(a.n_rows(), b.n_rows());
        assert!(b.nnz() <= a.nnz());
        for i in 0..b.n_rows() {
            let (mut diag, mut off) = (0.0f64, 0.0f64);
            for (j, v) in b.row_iter(i) {
                if j == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            let (mut d0, mut o0) = (0.0f64, 0.0f64);
            for (j, v) in a.row_iter(i) {
                if j == i {
                    d0 = v.abs();
                } else {
                    o0 += v.abs();
                }
            }
            if d0 >= o0 {
                assert!(diag >= off, "row {i} lost dominance: {diag} < {off}");
            }
        }
    }

    #[test]
    fn mix_separates_salts_and_seeds() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}
