//! Timed replays of the layers' public functions on a workload's own block
//! shape.
//!
//! The workload's driver program runs once against a capturing endpoint,
//! which records every message the session sends and acknowledges requests.
//! The captured stream is then fed to the controller's planning functions
//! (`expand_task`, `TemplateManager::finish_recording`,
//! `plan_instantiation`, `plan_migrations`) with no threads around them,
//! and the resulting messages to the worker template expansion, the codec
//! and the batch-frame parser.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nimbus_controller::{
    expand_task, AssignmentPolicy, Bookkeeping, DataManager, IdGens, TemplateManager,
};
use nimbus_core::ids::{JobId, TemplateId, WorkerId};
use nimbus_core::lineage::LineageLog;
use nimbus_core::template::{InstantiationParams, WorkerInstantiation};
use nimbus_driver::Session;
use nimbus_net::framing::{append_batch_frame, parse_batch};
use nimbus_net::{
    decode, encode_into, serialized_size, ControllerToDriver, ControllerToWorker, DriverMessage,
    Envelope, Message, NetError, NetResult, NodeId, TransportEndpoint, WorkerToController,
};

use crate::stats::median;
use crate::workloads::{Spans, Workload, WORKERS};

/// Each timed replay repeats for at least this many times and this long,
/// so that a burst of host noise cannot cover all of its samples; the
/// median is reported.
const MIN_REPS: usize = 15;
const MIN_REPLAY: Duration = Duration::from_millis(250);
/// Completions a worker reports per message (the cluster default).
const COMPLETION_BATCH: usize = 64;

#[derive(Default)]
struct CaptureState {
    sent: Vec<DriverMessage>,
    replies: VecDeque<ControllerToDriver>,
}

/// A driver endpoint that records what the session sends and answers every
/// request at once, so a driver program runs without a cluster.
#[derive(Clone, Default)]
struct CaptureEndpoint(Arc<Mutex<CaptureState>>);

impl CaptureEndpoint {
    fn take_sent(&self) -> Vec<DriverMessage> {
        std::mem::take(&mut self.0.lock().expect("capture lock").sent)
    }
}

impl TransportEndpoint for CaptureEndpoint {
    fn node(&self) -> NodeId {
        NodeId::Driver
    }

    fn send(&self, _to: NodeId, message: Message) -> NetResult<()> {
        let Message::Driver { msg, .. } = message else {
            return Ok(());
        };
        let reply = match &msg {
            DriverMessage::SubmitTask(_) | DriverMessage::InstantiateTemplate { .. } => None,
            DriverMessage::FetchValue { partition } => Some(ControllerToDriver::ValueFetched {
                partition: *partition,
                value: 0.0,
            }),
            _ => Some(ControllerToDriver::Ack),
        };
        let mut state = self.0.lock().expect("capture lock");
        state.sent.push(msg);
        state.replies.extend(reply);
        Ok(())
    }

    fn recv(&self) -> NetResult<Envelope> {
        self.try_recv()
    }

    fn recv_timeout(&self, _timeout: Duration) -> NetResult<Envelope> {
        self.try_recv()
    }

    fn try_recv(&self) -> NetResult<Envelope> {
        let reply = self.0.lock().expect("capture lock").replies.pop_front();
        reply
            .map(|r| Envelope {
                from: NodeId::Controller,
                to: NodeId::Driver,
                message: Message::ToDriver(r),
            })
            .ok_or(NetError::Empty)
    }

    fn pending(&self) -> usize {
        self.0.lock().expect("capture lock").replies.len()
    }
}

/// The messages one episode's session sends: during set-up, and during the
/// timed rounds.
struct Capture {
    setup: Vec<DriverMessage>,
    rounds: Vec<DriverMessage>,
}

fn capture(workload: &mut dyn Workload) -> Capture {
    let endpoint = CaptureEndpoint::default();
    let mut session = Session::new(endpoint.clone());
    let mut spans = Spans::default();
    workload
        .set_up(&mut session, &mut spans)
        .expect("captured set-up runs");
    let setup = endpoint.take_sent();
    for r in 0..workload.rounds() {
        workload
            .round(&mut session, r, &mut spans)
            .expect("captured round runs");
    }
    Capture {
        setup,
        rounds: endpoint.take_sent(),
    }
}

/// Controller state for one job, without threads.
struct Harness {
    dm: DataManager,
    bk: Bookkeeping,
    ids: IdGens,
    tm: TemplateManager,
    lineage: LineageLog,
    workers: Vec<WorkerId>,
    groups: HashMap<String, TemplateId>,
    block_tasks: HashMap<String, u64>,
    /// Last parameters each block was instantiated with.
    params: HashMap<String, InstantiationParams>,
    /// First block installed: the one the per-block figures describe.
    main: Option<String>,
}

/// Timings and counts gathered while applying a message stream.
#[derive(Default)]
struct Applied {
    install: Duration,
    installed_tasks: u64,
    plans: u64,
    patch_commands: u64,
    migration_ns: Vec<u64>,
}

impl Harness {
    fn new() -> Self {
        Self {
            dm: DataManager::new(AssignmentPolicy::hash()),
            bk: Bookkeeping::new(),
            ids: IdGens::new(),
            tm: TemplateManager::new(),
            lineage: LineageLog::new(),
            workers: (0..WORKERS as u32).map(WorkerId).collect(),
            groups: HashMap::new(),
            block_tasks: HashMap::new(),
            params: HashMap::new(),
            main: None,
        }
    }

    fn apply(&mut self, messages: &[DriverMessage], out: &mut Applied) {
        for msg in messages {
            match msg {
                DriverMessage::DefineDataset(def) => self.dm.define_dataset(def.clone()),
                DriverMessage::StartTemplate { name } => {
                    self.tm.start_recording(name).expect("start recording");
                }
                DriverMessage::SubmitTask(spec) => {
                    let expanded = expand_task(
                        spec,
                        &self.workers,
                        &mut self.dm,
                        &mut self.bk,
                        &self.ids,
                        &mut self.lineage,
                    )
                    .expect("task expands");
                    self.tm.record_task(spec, &expanded);
                    if let Some(name) = self.tm.recording_name() {
                        *self.block_tasks.entry(name.to_string()).or_default() += 1;
                    }
                }
                DriverMessage::FinishTemplate { name } => {
                    let start = Instant::now();
                    let (_ct, group, _installs) = self
                        .tm
                        .finish_recording(name, &self.dm, &self.ids)
                        .expect("template installs");
                    out.install += start.elapsed();
                    out.installed_tasks += self.block_tasks[name];
                    self.groups.insert(name.clone(), group);
                    self.main.get_or_insert_with(|| name.clone());
                }
                DriverMessage::InstantiateTemplate { name, params } => {
                    let plan = self.plan(name, params);
                    out.plans += 1;
                    out.patch_commands += plan.patch_commands.len() as u64;
                    self.params.insert(name.clone(), params.clone());
                }
                DriverMessage::MigrateTasks { name, count } => {
                    let start = Instant::now();
                    self.tm
                        .plan_migrations(name, *count, &self.workers, &mut self.dm)
                        .expect("migrations plan");
                    out.migration_ns.push(start.elapsed().as_nanos() as u64);
                }
                _ => {}
            }
        }
    }

    fn plan(
        &mut self,
        name: &str,
        params: &InstantiationParams,
    ) -> nimbus_controller::InstantiationPlan {
        let group = self.groups[name];
        self.tm
            .plan_instantiation(group, params, &mut self.dm, &mut self.bk, &self.ids)
            .expect("instantiation plans")
    }

    fn main_block(&self) -> (String, u64, InstantiationParams) {
        let name = self.main.clone().expect("a block was installed");
        let tasks = self.block_tasks[&name];
        let params = self.params[&name].clone();
        (name, tasks, params)
    }

    /// Times plans of the main block; `full` forces a full validation by
    /// forgetting which block ran last. Returns µs per task.
    fn time_plans(&mut self, full: bool) -> f64 {
        let (name, tasks, params) = self.main_block();
        let group = self.groups[&name];
        repeat(|| {
            self.tm.last_executed = if full { None } else { Some(group) };
            let start = Instant::now();
            let plan = self.plan(&name, &params);
            let us = start.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(plan.expected_commands);
            us / tasks as f64
        })
    }

    /// Worker-template entries of the main block per task.
    fn entries_per_task(&self) -> f64 {
        let (name, tasks, _) = self.main_block();
        let group = self
            .tm
            .registry
            .group(self.groups[&name])
            .expect("group installed");
        let entries: usize = group.per_worker.values().map(|t| t.len()).sum();
        entries as f64 / tasks as f64
    }

    /// Times the expansion of every worker's template for one planned
    /// instantiation of the main block. Returns µs per task.
    fn time_expansion(&mut self) -> f64 {
        let (name, tasks, params) = self.main_block();
        let plan = self.plan(&name, &params);
        let group = self
            .tm
            .registry
            .group(self.groups[&name])
            .expect("group installed");
        let work: Vec<_> = plan
            .per_worker
            .into_iter()
            .map(|(w, mut inst)| {
                inst.edits.clear();
                (group.per_worker[&w].clone(), inst)
            })
            .collect();
        repeat(|| {
            let start = Instant::now();
            for (template, inst) in &work {
                let commands = template.instantiate(inst).expect("template expands");
                std::hint::black_box(commands.len());
            }
            start.elapsed().as_secs_f64() * 1e6 / tasks as f64
        })
    }

    /// The wire messages of one instantiation of the main block: the
    /// driver's request, each worker's instantiation, the commands it
    /// expands to as a dispatch batch, and their completion reports.
    fn block_messages(&mut self) -> (Vec<Envelope>, usize) {
        let (name, _tasks, params) = self.main_block();
        let plan = self.plan(&name, &params);
        let group = self
            .tm
            .registry
            .group(self.groups[&name])
            .expect("group installed");
        let job = JobId(1);
        let mut envelopes = vec![Envelope {
            from: NodeId::Driver,
            to: NodeId::Controller,
            message: Message::Driver {
                job,
                msg: DriverMessage::InstantiateTemplate { name, params },
            },
        }];
        for (w, inst) in &plan.per_worker {
            envelopes.push(to_worker(
                *w,
                ControllerToWorker::InstantiateTemplate {
                    job,
                    inst: inst.clone(),
                },
            ));
        }
        let instantiation_messages = envelopes.len();
        for (w, inst) in &plan.per_worker {
            let commands = group.per_worker[w]
                .instantiate(&WorkerInstantiation {
                    edits: Vec::new(),
                    ..inst.clone()
                })
                .expect("template expands");
            for chunk in commands.chunks(COMPLETION_BATCH) {
                envelopes.push(Envelope {
                    from: NodeId::Worker(*w),
                    to: NodeId::Controller,
                    message: Message::FromWorker(WorkerToController::CommandsCompleted {
                        job,
                        worker: *w,
                        commands: chunk.iter().map(|c| c.id).collect(),
                        compute_micros: 1,
                    }),
                });
            }
            envelopes.push(to_worker(
                *w,
                ControllerToWorker::ExecuteCommands { job, commands },
            ));
        }
        (envelopes, instantiation_messages)
    }
}

fn to_worker(w: WorkerId, msg: ControllerToWorker) -> Envelope {
    Envelope {
        from: NodeId::Controller,
        to: NodeId::Worker(w),
        message: Message::ToWorker(msg),
    }
}

/// Calls `sample` at least [`MIN_REPS`] times and for at least
/// [`MIN_REPLAY`], and returns the median of what it measured.
fn repeat(mut sample: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || start.elapsed() < MIN_REPLAY {
        samples.push(sample());
    }
    median(&samples)
}

/// Codec and framing figures for one set of wire messages: encode, decode
/// and batch-frame parse, in ns per message.
fn time_codec(envelopes: &[Envelope]) -> (f64, f64, f64) {
    let n = envelopes.len() as f64;
    let mut buf = Vec::new();
    let encode = repeat(|| {
        let start = Instant::now();
        for e in envelopes {
            buf.clear();
            encode_into(e, &mut buf).expect("message encodes");
        }
        start.elapsed().as_nanos() as f64 / n
    });
    let encoded: Vec<Vec<u8>> = envelopes
        .iter()
        .map(|e| {
            let mut b = Vec::new();
            encode_into(e, &mut b).expect("message encodes");
            b
        })
        .collect();
    let decode_ns = repeat(|| {
        let start = Instant::now();
        for b in &encoded {
            std::hint::black_box(decode::<Envelope>(b).expect("message decodes"));
        }
        start.elapsed().as_nanos() as f64 / n
    });
    let mut frame = Vec::new();
    append_batch_frame(&mut frame, envelopes).expect("batch frame builds");
    let parse = repeat(|| {
        let start = Instant::now();
        let parsed = parse_batch(&frame[4..]).expect("batch frame parses");
        std::hint::black_box(parsed.len());
        start.elapsed().as_nanos() as f64 / n
    });
    (encode, decode_ns, parse)
}

/// Runs every replay for a fresh instance of the workload and returns the
/// per-layer figures by metric name.
pub fn replay(workload: &mut dyn Workload) -> BTreeMap<&'static str, f64> {
    let captured = capture(workload);
    let mut m = BTreeMap::new();

    // Install: fresh state each time, timing only `finish_recording`.
    let install = repeat(|| {
        let mut h = Harness::new();
        let mut applied = Applied::default();
        h.apply(&captured.setup, &mut applied);
        applied.install.as_secs_f64() * 1e6 / applied.installed_tasks as f64
    });
    m.insert("controller.install_us_per_task", install);

    // Auto and full validation, and the wire messages, right after set-up.
    let mut h = Harness::new();
    h.apply(&captured.setup, &mut Applied::default());
    m.insert("controller.plan_auto_us_per_task", h.time_plans(false));
    m.insert("controller.plan_full_us_per_task", h.time_plans(true));
    let (envelopes, instantiation_messages) = h.block_messages();
    let (_, tasks, _) = h.main_block();
    let inst_bytes: usize = envelopes[..instantiation_messages]
        .iter()
        .map(serialized_size)
        .sum();
    m.insert(
        "codec.inst_bytes_per_task",
        inst_bytes as f64 / tasks as f64,
    );
    let (encode, decode_ns, parse) = time_codec(&envelopes);
    m.insert("codec.encode_ns_per_msg", encode);
    m.insert("codec.decode_ns_per_msg", decode_ns);
    m.insert("framing.parse_ns_per_msg", parse);

    // The whole episode, edits included; then planning on what it left.
    let mut h = Harness::new();
    let mut applied = Applied::default();
    h.apply(&captured.setup, &mut Applied::default());
    h.apply(&captured.rounds, &mut applied);
    m.insert(
        "controller.patch_cmds_per_inst",
        applied.patch_commands as f64 / applied.plans.max(1) as f64,
    );
    m.insert("template.entries_per_task", h.entries_per_task());
    m.insert("template.expand_us_per_task", h.time_expansion());
    m.insert("controller.plan_edited_us_per_task", h.time_plans(false));
    if applied.migration_ns.is_empty() {
        // The workload migrates nothing itself; time the same request on its
        // block anyway. This is the last use of the replayed state.
        let (name, _, _) = h.main_block();
        let msgs = vec![DriverMessage::MigrateTasks { name, count: 2 }; MIN_REPS];
        h.apply(&msgs, &mut applied);
    }
    m.insert(
        "controller.plan_migrations_us",
        median(
            &applied
                .migration_ns
                .iter()
                .map(|ns| *ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    m
}
