//! The three workloads. Each is a closed loop: one driver session waits on
//! its own barriers and fetches. An episode is a fresh cluster, the
//! workload's set-up (every block recorded and instantiated once), a fixed
//! number of timed rounds, and a read-back of the outputs.

use std::time::Instant;

use nimbus_apps::data::generate_classification_partition;
use nimbus_apps::logistic_regression::{self as lr, LogisticRegressionConfig, LrDatasets};
use nimbus_apps::reduction::reduction_task_count;
use nimbus_core::appdata::{Scalar, VecF64};
use nimbus_core::ids::{FunctionId, LogicalObjectId};
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::{AppSetup, ClusterConfig};

/// Workers in every cluster (one per CPU of the reference host).
pub const WORKERS: usize = 2;

/// Spans around the driver's calls into the runtime. When off, the calls
/// run untouched.
#[derive(Default)]
pub struct Spans {
    /// Whether spans are recorded.
    pub on: bool,
    /// Durations of `Session::block` calls that replay a recorded block, ns.
    pub block_ns: Vec<u64>,
    /// Durations of blocking `barrier` and `fetch` calls, ns.
    pub wait_ns: Vec<u64>,
}

impl Spans {
    fn time<T>(on: bool, into: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        into.push(start.elapsed().as_nanos() as u64);
        out
    }

    fn block<T>(&mut self, f: impl FnOnce() -> T) -> T {
        Self::time(self.on, &mut self.block_ns, f)
    }

    fn wait<T>(&mut self, f: impl FnOnce() -> T) -> T {
        Self::time(self.on, &mut self.wait_ns, f)
    }
}

/// What one timed round did.
pub struct Round {
    /// Iterations the round counts as (blocks of a flood window, or one
    /// logistic-regression iteration).
    pub iterations: u32,
    /// Application tasks the round ran.
    pub tasks: u64,
    /// Operations of the round that failed.
    pub failed: u64,
}

/// A benchmark workload driven through one session.
pub trait Workload {
    /// The cluster the workload runs on.
    fn cluster_config(&self) -> ClusterConfig;
    /// Task functions and dataset factories.
    fn app_setup(&self) -> AppSetup;
    /// Defines the datasets and runs every block twice (recording, then the
    /// first instantiation), ending when that work has completed.
    fn set_up(&mut self, s: &mut Session, spans: &mut Spans) -> DriverResult<()>;
    /// Timed rounds per episode.
    fn rounds(&self) -> usize;
    /// Runs timed round `r`.
    fn round(&mut self, s: &mut Session, r: usize, spans: &mut Spans) -> DriverResult<Round>;
    /// Reads outputs back after the timed rounds and checks them; this is
    /// the episode's last operation. Returns 1 if it failed.
    fn read_back(&mut self, s: &mut Session) -> DriverResult<u64>;
    /// Application tasks one whole episode runs.
    fn tasks_per_episode(&self) -> u64;
    /// Operations one whole episode attempts: block executions or
    /// iterations, and the read-back.
    fn ops_per_episode(&self) -> u64;
    /// Output mismatches found so far.
    fn errors(&self) -> &[String];
}

/// SplitMix64: the benchmark's only source of seeded values.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Floods: one single-stage block instantiated back to back.
// ---------------------------------------------------------------------------

const ADD: FunctionId = FunctionId(1);
/// Partitions read back after a flood episode, besides the first and last.
const FLOOD_SAMPLE: usize = 6;

/// A single-stage block of `width` tasks, instantiated in windows of
/// `window` blocks that each end at a barrier.
pub struct Flood {
    tcp: bool,
    width: u32,
    window: u32,
    rounds: usize,
    seed: u64,
    data: Option<Dataset<VecF64>>,
    blocks_run: u64,
    delta_sum: f64,
    errors: Vec<String>,
}

impl Flood {
    /// `flood_wide`: a ~2,000-task block on the in-process transport.
    pub fn wide(seed: u64) -> Self {
        Self::new(false, 2000, 4, 12, seed)
    }

    /// `flood_tcp`: a 16-task block over loopback TCP.
    pub fn tcp(seed: u64) -> Self {
        Self::new(true, 16, 64, 200, seed)
    }

    fn new(tcp: bool, width: u32, window: u32, rounds: usize, seed: u64) -> Self {
        Self {
            tcp,
            width,
            window,
            rounds,
            seed,
            data: None,
            blocks_run: 0,
            delta_sum: 0.0,
            errors: Vec::new(),
        }
    }

    /// Parameter of block `k`: a seeded multiple of 1/4, so every partial
    /// sum is exact in `f64`.
    fn delta(&self, k: u64) -> f64 {
        (mix(self.seed ^ mix(k)) % 64) as f64 * 0.25
    }

    fn block(&mut self, s: &mut Session) -> DriverResult<()> {
        let data = self.data.clone().expect("datasets defined in set-up");
        let delta = self.delta(self.blocks_run);
        s.block("flood", |s| {
            s.submit_stage(
                StageSpec::new("add", ADD)
                    .write(&data)
                    .params_per_partition(move |p| TaskParams::from_scalar(delta + p as f64)),
            )
        })?;
        self.blocks_run += 1;
        self.delta_sum += delta;
        Ok(())
    }
}

impl Workload for Flood {
    fn cluster_config(&self) -> ClusterConfig {
        let config = ClusterConfig::new(WORKERS);
        if self.tcp {
            config.with_tcp_transport()
        } else {
            config
        }
    }

    fn app_setup(&self) -> AppSetup {
        AppSetup::new()
            .function(ADD, "add", |ctx| {
                let delta = ctx.params().as_scalar().map_err(|e| e.to_string())?;
                for x in ctx.write::<VecF64>(0)?.values.iter_mut() {
                    *x += delta;
                }
                Ok(())
            })
            .object(LogicalObjectId(1), |_| VecF64::zeros(1))
    }

    fn set_up(&mut self, s: &mut Session, spans: &mut Spans) -> DriverResult<()> {
        self.data = Some(s.define_dataset("data", self.width)?);
        self.blocks_run = 0;
        self.delta_sum = 0.0;
        self.block(s)?;
        self.block(s)?;
        spans.wait(|| s.barrier())
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn round(&mut self, s: &mut Session, _r: usize, spans: &mut Spans) -> DriverResult<Round> {
        for _ in 0..self.window {
            spans.block(|| self.block(s))?;
        }
        spans.wait(|| s.barrier())?;
        Ok(Round {
            iterations: self.window,
            tasks: u64::from(self.window) * u64::from(self.width),
            failed: 0,
        })
    }

    fn read_back(&mut self, s: &mut Session) -> DriverResult<u64> {
        let data = self.data.clone().expect("datasets defined in set-up");
        let mut partitions = vec![0, self.width - 1];
        let mut k = 0;
        while partitions.len() < FLOOD_SAMPLE + 2 {
            let p = (mix(self.seed.wrapping_add(0x5A5A) ^ k) % u64::from(self.width)) as u32;
            if !partitions.contains(&p) {
                partitions.push(p);
            }
            k += 1;
        }
        for p in partitions {
            let got = s.fetch(&data, p)?;
            let want = self.delta_sum + self.blocks_run as f64 * f64::from(p);
            if got != want {
                self.errors
                    .push(format!("partition {p}: fetched {got}, closed form {want}"));
            }
        }
        Ok(0)
    }

    fn tasks_per_episode(&self) -> u64 {
        (2 + self.rounds as u64 * u64::from(self.window)) * u64::from(self.width)
    }

    fn ops_per_episode(&self) -> u64 {
        2 + self.rounds as u64 * u64::from(self.window) + 1
    }

    fn errors(&self) -> &[String] {
        &self.errors
    }
}

// ---------------------------------------------------------------------------
// lr_migrate: logistic regression with fetches, loss blocks and migrations.
// ---------------------------------------------------------------------------

/// Reads the weights vector and writes element `param` into its partition.
const WEIGHT_PROBE: FunctionId = FunctionId(90);
/// Dataset id of the probe: the tenth dataset the session defines.
const PROBE_ID: LogicalObjectId = LogicalObjectId(10);
const LR_PARTITIONS: u32 = 64;
const LR_POINTS: usize = 48;
const LR_DIM: usize = 8;
/// Iterations 0 and 1 are the set-up: both blocks are recorded, then
/// instantiated.
const LR_SETUP_ITERATIONS: usize = 2;
const LR_ROUNDS: usize = 300;
/// The loss block runs after the gradient block at every iteration that is
/// a multiple of this (and at both set-up iterations).
const OUTER_EVERY: usize = 25;
/// Two gradient tasks migrate before every iteration that is a multiple of
/// this (after set-up).
const MIGRATE_EVERY: usize = 10;
const MIGRATED_TASKS: usize = 2;
/// Largest relative error allowed against the serial reference.
const REL_TOLERANCE: f64 = 1e-9;
/// A fault of the runtime: from the 17th `migrate_tasks` call on (the one
/// that moves the last gradient tasks off worker 0, at iteration 170), every
/// fetched value leaves the serial reference, for every seed. Operations
/// from there on that do not match are counted as failed, so the failed
/// share is the same in every run; a mismatch before it fails the run.
const FAULTY_FROM_ITERATION: usize = 170;

fn outer_at(i: usize) -> bool {
    i < LR_SETUP_ITERATIONS || i.is_multiple_of(OUTER_EVERY)
}

fn migrate_at(i: usize) -> bool {
    i >= LR_SETUP_ITERATIONS && i.is_multiple_of(MIGRATE_EVERY)
}

/// Plain serial gradient descent over the same generated points: what every
/// fetch of the distributed job must return, whatever the task placement.
struct Reference {
    norms: Vec<f64>,
    losses: Vec<Option<f64>>,
    weights: Vec<f64>,
}

impl Reference {
    fn compute(config: &LogisticRegressionConfig, iterations: usize) -> Self {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for p in 0..config.partitions {
            let part = generate_classification_partition(
                config.seed,
                p,
                config.points_per_partition,
                config.dim,
            );
            xs.extend(part.xs);
            ys.extend(part.ys);
        }
        let n = ys.len() as f64;
        let dim = config.dim;
        let mut w = vec![0.0; dim];
        let (mut norms, mut losses) = (Vec::new(), Vec::new());
        for i in 0..iterations {
            let mut g = vec![0.0; dim];
            for (row, y) in xs.chunks(dim).zip(&ys) {
                let margin: f64 = row.iter().zip(&w).map(|(a, b)| a * b).sum();
                let coeff = -y / (1.0 + (y * margin).exp());
                for (gk, x) in g.iter_mut().zip(row) {
                    *gk += coeff * x;
                }
            }
            norms.push(g.iter().map(|v| v * v).sum::<f64>().sqrt() / n);
            for (wk, gk) in w.iter_mut().zip(&g) {
                *wk -= config.learning_rate * gk / n;
            }
            losses.push(outer_at(i).then(|| {
                xs.chunks(dim)
                    .zip(&ys)
                    .map(|(row, y)| {
                        let margin: f64 = row.iter().zip(&w).map(|(a, b)| a * b).sum();
                        (1.0 + (-y * margin).exp()).ln()
                    })
                    .sum()
            }));
        }
        Self {
            norms,
            losses,
            weights: w,
        }
    }
}

/// The logistic-regression inner block with a gradient-norm fetch every
/// iteration, the loss block at fixed iterations, and `migrate_tasks` at
/// fixed iterations.
pub struct LrMigrate {
    config: LogisticRegressionConfig,
    reference: Reference,
    data: Option<(LrDatasets, Dataset<Scalar>)>,
    errors: Vec<String>,
}

impl LrMigrate {
    /// Generates the points from `seed` and computes the serial reference.
    pub fn new(seed: u64) -> Self {
        let config = LogisticRegressionConfig {
            partitions: LR_PARTITIONS,
            points_per_partition: LR_POINTS,
            dim: LR_DIM,
            seed: mix(seed),
            ..Default::default()
        };
        let reference = Reference::compute(&config, LR_SETUP_ITERATIONS + LR_ROUNDS);
        Self {
            config,
            reference,
            data: None,
            errors: Vec::new(),
        }
    }

    fn inner_tasks(&self) -> u64 {
        u64::from(LR_PARTITIONS) + u64::from(reduction_task_count(LR_PARTITIONS)) + 1
    }

    fn outer_tasks(&self) -> u64 {
        u64::from(LR_PARTITIONS) + u64::from(reduction_task_count(LR_PARTITIONS))
    }

    fn mismatch(what: String, got: f64, want: f64) -> Option<String> {
        ((got - want).abs() > REL_TOLERANCE * want.abs())
            .then(|| format!("{what}: fetched {got}, serial reference {want}"))
    }

    /// Judges the operation that ran as iteration `i` (the read-back runs
    /// as the iteration after the last): 1 if it failed inside the known
    /// fault, else 0 with any mismatch recorded as an error.
    fn judge(&mut self, i: usize, mismatches: Vec<String>) -> u64 {
        if mismatches.is_empty() {
            0
        } else if i >= FAULTY_FROM_ITERATION {
            1
        } else {
            self.errors.extend(mismatches);
            0
        }
    }

    /// Iteration `i` of the job: optional migration, the gradient block and
    /// its norm fetch, and the loss block and its fetch when due.
    fn iteration(&mut self, s: &mut Session, i: usize, spans: &mut Spans) -> DriverResult<Round> {
        let (data, _) = self.data.as_ref().expect("datasets defined in set-up");
        if migrate_at(i) {
            s.migrate_tasks("lr_inner", MIGRATED_TASKS)?;
        }
        spans.block(|| lr::submit_inner_block(s, data, &self.config))?;
        let norm = spans.wait(|| s.fetch(&data.gradient_norm, 0))?;
        let mut tasks = self.inner_tasks();
        let loss = if outer_at(i) {
            spans.block(|| lr::submit_outer_block(s, data, &self.config))?;
            tasks += self.outer_tasks();
            Some(spans.wait(|| s.fetch(&data.loss, 0))?)
        } else {
            None
        };
        let mut mismatches: Vec<String> = Self::mismatch(
            format!("iteration {i} gradient norm"),
            norm,
            self.reference.norms[i],
        )
        .into_iter()
        .collect();
        if let (Some(got), Some(want)) = (loss, self.reference.losses[i]) {
            mismatches.extend(Self::mismatch(format!("iteration {i} loss"), got, want));
        }
        Ok(Round {
            iterations: 1,
            tasks,
            failed: self.judge(i, mismatches),
        })
    }
}

impl Workload for LrMigrate {
    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::new(WORKERS)
    }

    fn app_setup(&self) -> AppSetup {
        let mut setup = AppSetup::new();
        lr::register(&mut setup, &self.config);
        setup
            .function(WEIGHT_PROBE, "weight_probe", |ctx| {
                let index = ctx.params().as_scalar().map_err(|e| e.to_string())? as usize;
                let value = ctx.read::<VecF64>(0)?.values[index];
                ctx.write::<Scalar>(0)?.value = value;
                Ok(())
            })
            .object(PROBE_ID, |_| Scalar::new(0.0))
    }

    fn set_up(&mut self, s: &mut Session, spans: &mut Spans) -> DriverResult<()> {
        let data = lr::define_datasets(s, &self.config)?;
        let probe = s.define_dataset("weight_probe", LR_DIM as u32)?;
        self.data = Some((data, probe));
        for i in 0..LR_SETUP_ITERATIONS {
            self.iteration(s, i, spans)?;
        }
        Ok(())
    }

    fn rounds(&self) -> usize {
        LR_ROUNDS
    }

    fn round(&mut self, s: &mut Session, r: usize, spans: &mut Spans) -> DriverResult<Round> {
        self.iteration(s, LR_SETUP_ITERATIONS + r, spans)
    }

    fn read_back(&mut self, s: &mut Session) -> DriverResult<u64> {
        let (data, probe) = self.data.as_ref().expect("datasets defined in set-up");
        s.submit_stage(
            StageSpec::new("probe", WEIGHT_PROBE)
                .read_broadcast(&data.weights)
                .write(probe)
                .params_per_partition(|p| TaskParams::from_scalar(f64::from(p))),
        )?;
        let probe = probe.clone();
        let mut mismatches = Vec::new();
        for k in 0..LR_DIM {
            let got = s.fetch(&probe, k as u32)?;
            mismatches.extend(Self::mismatch(
                format!("final weight {k}"),
                got,
                self.reference.weights[k],
            ));
        }
        Ok(self.judge(LR_SETUP_ITERATIONS + LR_ROUNDS, mismatches))
    }

    fn tasks_per_episode(&self) -> u64 {
        let iterations = LR_SETUP_ITERATIONS + LR_ROUNDS;
        let outers = (0..iterations).filter(|i| outer_at(*i)).count() as u64;
        iterations as u64 * self.inner_tasks() + outers * self.outer_tasks() + LR_DIM as u64
    }

    fn ops_per_episode(&self) -> u64 {
        (LR_SETUP_ITERATIONS + LR_ROUNDS) as u64 + 1
    }

    fn errors(&self) -> &[String] {
        &self.errors
    }
}
