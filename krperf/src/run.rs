//! Server set-up and the measured closed loops. Every request goes over
//! a real socket to an in-process `kr_server::Server` through
//! `kr_server::Client`; a client sends its next request only after the
//! previous one was answered.

use crate::plan::{Algo, Key, Op, Plan, Toggle, CORRIDOR};
use crate::rng::Rng;
use kr_graph::VertexId;
use kr_server::{
    AttributeValue, CacheOutcome, CacheStats, Client, ClientError, Frame, QuerySpec, Request,
    Server, ServerConfig, ServerHandle,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// One set-up, timed from its first step to the moment the server is
/// ready for the first measured request.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    pub total_s: f64,
    /// CPU time of the whole process over the set-up.
    pub cpu_s: f64,
    /// `DatasetRegistry::get` of every hosted dataset (generation or
    /// snapshot load).
    pub load_ms: f64,
    /// The first `HostedDataset::decomposition` call of every dataset.
    pub index_ms: f64,
}

/// Writes the corridor `.krb` (when the plan serves one), starts a
/// server, makes every dataset resident, builds every decomposition
/// index and warms the cache, so no lazy set-up lands in the window.
pub fn setup(plan: &Plan, out: &Path, trace_log: Option<&Path>) -> (ServerHandle, SetupSample) {
    let start = Instant::now();
    let cpu_start = CpuClock::PROCESS.ns();
    let mut config = ServerConfig {
        trace_log: trace_log.map(|p| p.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let mut datasets = vec![plan.preset];
    if let Some(c) = plan.shadows.get(CORRIDOR) {
        let path = out.join("corridor.krb");
        let ids: Vec<u64> = (0..c.graph.num_vertices() as u64).collect();
        kr_similarity::write_snapshot_file(&path, &c.graph, &ids, &c.attrs, c.metric)
            .expect("write the corridor snapshot");
        config
            .file_datasets
            .push((CORRIDOR.to_string(), path.to_string_lossy().into_owned()));
        datasets.push((CORRIDOR, 1.0));
    }
    let handle = Server::bind(config).expect("bind").spawn();
    let state = handle.state();
    let (mut load_ms, mut index_ms) = (0.0, 0.0);
    for (name, scale) in datasets {
        let t = Instant::now();
        let ds = state.datasets.get(name, scale).expect("dataset loads");
        load_ms += ms(t.elapsed());
        let t = Instant::now();
        ds.decomposition();
        index_ms += ms(t.elapsed());
    }
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (i, key) in plan.warm.iter().enumerate() {
        // A one-node budget builds and caches the key's components
        // without paying for its search.
        let req = request(format!("w{i}"), key, Some(1));
        let reply = exchange(&mut client, &req, false).expect("warm-up query");
        assert!(reply.error.is_none(), "warm-up failed: {:?}", reply.error);
    }
    let sample = SetupSample {
        total_s: start.elapsed().as_secs_f64(),
        cpu_s: (CpuClock::PROCESS.ns() - cpu_start) as f64 * 1e-9,
        load_ms,
        index_ms,
    };
    (handle, sample)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn request(id: String, key: &Key, node_limit: Option<u64>) -> Request {
    let spec = QuerySpec {
        scale: key.scale,
        threads: 1,
        node_limit,
        ..QuerySpec::new(key.dataset, key.k, key.r)
    };
    match key.algo {
        Algo::Enum => Request::Enumerate { id, spec },
        Algo::Max => Request::Maximum { id, spec },
    }
}

/// What came back for one request.
pub struct Reply {
    pub cores: Vec<Vec<VertexId>>,
    pub done: Option<Frame>,
    pub error: Option<String>,
    pub frames: Vec<Frame>,
}

/// Sends `req` and reads frames until its `done`, `mutated` or `error`.
pub fn exchange(client: &mut Client, req: &Request, keep: bool) -> Result<Reply, ClientError> {
    client.send(req)?;
    let mut reply = Reply {
        cores: Vec::new(),
        done: None,
        error: None,
        frames: Vec::new(),
    };
    loop {
        let frame = client.read_frame()?;
        if keep {
            reply.frames.push(frame.clone());
        }
        match frame {
            Frame::Core { vertices, .. } => reply.cores.push(vertices),
            Frame::Done { .. } | Frame::Mutated { .. } => {
                reply.done = Some(frame);
                return Ok(reply);
            }
            Frame::Error { code, message, .. } => {
                reply.error = Some(format!("{}: {message}", code.name()));
                return Ok(reply);
            }
            other => return Err(ClientError::Unexpected(Box::new(other))),
        }
    }
}

/// The one-update batch that flips toggle `t` to `on`.
pub fn flip_request(id: String, dataset: &str, scale: f64, t: &Toggle, on: bool) -> Request {
    let dataset = dataset.to_string();
    match *t {
        Toggle::Edge { u, v, in_base } => {
            let edges = vec![(u, v)];
            if in_base != on {
                Request::AddEdges {
                    id,
                    dataset,
                    scale,
                    edges,
                }
            } else {
                Request::RemoveEdges {
                    id,
                    dataset,
                    scale,
                    edges,
                }
            }
        }
        Toggle::Move { w, base, moved } => {
            let (x, y) = if on { moved } else { base };
            Request::SetAttributes {
                id,
                dataset,
                scale,
                updates: vec![(w, AttributeValue::Point(x, y))],
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// An `error` frame (including `busy`) or a wrong frame count.
    Error,
    /// Answered, but cut by a budget (`completed = false`).
    Incomplete,
}

#[derive(Debug, Clone)]
pub enum OpKind {
    Read {
        key: u32,
        /// Graph state the read saw (see [`Toggle`]).
        state: u32,
        hit: bool,
        answer: u32,
        frames: u32,
    },
    Write {
        applied: u32,
        core_updates: u32,
        repairs: u32,
        invalidations: u32,
    },
}

/// One operation. Each client logs into a buffer allocated before
/// set-up (see [`op_logs`]), so logging adds nothing to the peak memory
/// the window measures.
#[derive(Debug, Clone)]
pub struct OpRec {
    /// Send time, in microseconds since [`anchor`].
    pub start_us: u32,
    pub lat_ns: u64,
    /// CPU time of the client thread and its session thread over the
    /// operation.
    pub cpu_ns: u64,
    /// The server's trace id (echoed on the final frame) as a number.
    pub trace: u64,
    pub status: Status,
    pub kind: OpKind,
}

/// The instant every [`OpRec::start_us`] counts from.
pub fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

fn since_anchor_us(t: Instant) -> u32 {
    (t - anchor()).as_micros() as u32
}

/// A trace id (16 hex digits) as a number; 0 when absent.
pub fn trace_id(hex: &str) -> u64 {
    u64::from_str_radix(hex, 16).unwrap_or(0)
}

impl OpRec {
    const FILLER: OpRec = OpRec {
        start_us: 0,
        lat_ns: 0,
        cpu_ns: 0,
        trace: 0,
        status: Status::Ok,
        kind: OpKind::Write {
            applied: 0,
            core_updates: 0,
            repairs: 0,
            invalidations: 0,
        },
    };

    pub fn is_read(&self) -> bool {
        matches!(self.kind, OpKind::Read { .. })
    }
}

/// One distinct answer: a key, the graph state it was asked at, and the
/// returned family as a fingerprint and a core count. Maximum answers
/// also keep their core (sorted), which the check tests with
/// `is_kr_core`; enumeration answers are checked by fingerprint alone,
/// so the stored answers stay small.
pub struct Answer {
    pub key: u32,
    pub state: u32,
    pub fingerprint: u64,
    pub count: usize,
    pub cores: Vec<Vec<VertexId>>,
}

/// Operations a client can log per second of window before its log
/// grows (about four times what the fastest workload runs at).
const LOG_OPS_PER_S: f64 = 25_000.0;

/// One empty operation log per client with room for `seconds` of
/// traffic, its pages already touched.
pub fn op_logs(plan: &Plan, seconds: f64) -> Vec<Vec<OpRec>> {
    let cap = (LOG_OPS_PER_S * seconds).ceil() as usize;
    (0..plan.clients)
        .map(|_| {
            let mut log = vec![OpRec::FILLER; cap];
            log.clear();
            log
        })
        .collect()
}

/// A field of `/proc/self/status` (`VmRSS`, `VmHWM`, ...), in MiB; 0
/// where the file is missing.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A thread's CPU-time clock: the time the thread ran on a CPU. Time it
/// waited to be scheduled, or the host took from the virtual CPU, does
/// not count, so the clock is steady on a shared machine where wall
/// time is not.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock(i32);

impl CpuClock {
    /// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process.
    pub const PROCESS: CpuClock = CpuClock(2);
    /// `CLOCK_THREAD_CPUTIME_ID`: the calling thread.
    pub const THIS_THREAD: CpuClock = CpuClock(3);

    /// The clock of thread `tid` of this process (the kernel's
    /// `MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)`).
    fn of_thread(tid: i32) -> CpuClock {
        CpuClock((!tid << 3) | 6)
    }

    pub fn ns(self) -> u64 {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `clock_gettime` writes one `timespec` to the pointer.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime on CPU clock {}", self.0);
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    }
}

/// The ids of this process's threads.
fn thread_ids() -> Vec<i32> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// Opens a client connection and finds the server's session thread for
/// it: the one thread of the process that appears after the connect.
/// The server runs every `threads = 1` request on that thread.
fn connect(addr: SocketAddr) -> (Client, i32) {
    let before = thread_ids();
    let mut client = Client::connect(addr).expect("connect");
    // The session answers a ping only once it runs.
    client.ping().expect("ping");
    let new: Vec<i32> = thread_ids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    let [tid] = new[..] else {
        panic!("expected one new session thread after connect, found {new:?}");
    };
    (client, tid)
}

/// Every operation of a window, merged across clients.
pub struct WindowLog {
    /// From the clients' start to the last client's end, in seconds.
    pub seconds: f64,
    /// `VmHWM` in MiB as the last client ended, before the logs merge.
    pub hwm_mb: f64,
    /// Whether a client logged more operations than its buffer held
    /// (its log then grew inside the window).
    pub log_overflow: bool,
    pub ops: Vec<OpRec>,
    pub keys: Vec<Key>,
    pub answers: Vec<Answer>,
    /// Requests and their full frame sequences, for the protocol timers.
    pub samples: Vec<(Request, Vec<Frame>)>,
    pub stats_before: CacheStats,
    pub stats_after: CacheStats,
}

/// Order-independent fingerprint of a family of sorted cores.
pub fn fingerprint(cores: &[Vec<VertexId>]) -> u64 {
    cores.iter().fold(cores.len() as u64, |acc, core| {
        let h = core.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &v| {
            (h ^ u64::from(v)).wrapping_mul(0x0100_0000_01B3)
        });
        acc.wrapping_add(h ^ (h >> 29))
    })
}

#[derive(Default)]
struct ClientLog {
    ops: Vec<OpRec>,
    keys: Vec<Key>,
    key_ids: HashMap<(&'static str, u32, u64, Algo), u32>,
    answer_ids: HashMap<(u32, u32, u64), u32>,
    answers: Vec<Answer>,
    samples: Vec<(Request, Vec<Frame>)>,
}

impl ClientLog {
    fn key_id(&mut self, key: Key) -> u32 {
        let next = self.keys.len() as u32;
        let id = *self.key_ids.entry(key.id()).or_insert(next);
        if id == next {
            self.keys.push(key);
        }
        id
    }

    fn answer_id(&mut self, answer: Answer) -> u32 {
        let next = self.answers.len() as u32;
        let id = *self
            .answer_ids
            .entry((answer.key, answer.state, answer.fingerprint))
            .or_insert(next);
        if id == next {
            self.answers.push(answer);
        }
        id
    }
}

/// Frames sampled per client for the protocol timers.
const SAMPLES_PER_CLIENT: usize = 2000;

/// Runs one request and records it.
#[allow(clippy::too_many_arguments)]
fn run_op(
    client: &mut Client,
    log: &mut ClientLog,
    plan: &Plan,
    op: Op,
    seq: u64,
    state: &mut u32,
    keep: bool,
    clocks: [CpuClock; 2],
) -> Result<(), ClientError> {
    let cpu = || clocks.iter().map(|c| c.ns()).sum::<u64>();
    let id = format!("q{seq}");
    let keep = keep && log.samples.len() < SAMPLES_PER_CLIENT;
    let (req, read_key) = match op {
        Op::Read(key) => (request(id, &key, None), Some(key)),
        Op::Flip(i, on) => {
            *state = if on { i as u32 + 1 } else { 0 };
            let (name, scale) = plan.preset;
            (flip_request(id, name, scale, &plan.toggles[i], on), None)
        }
    };
    let cpu_start = cpu();
    let start = Instant::now();
    let reply = exchange(client, &req, keep)?;
    let lat_ns = start.elapsed().as_nanos() as u64;
    let cpu_ns = cpu().saturating_sub(cpu_start);
    let rec = record(
        log,
        read_key,
        *state,
        start,
        lat_ns,
        reply.cores,
        &reply.done,
        &reply.error,
    );
    log.ops.push(OpRec { cpu_ns, ..rec });
    if keep {
        log.samples.push((req, reply.frames));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn record(
    log: &mut ClientLog,
    read_key: Option<Key>,
    state: u32,
    start: Instant,
    lat_ns: u64,
    cores: Vec<Vec<VertexId>>,
    done: &Option<Frame>,
    error: &Option<String>,
) -> OpRec {
    let mut rec = OpRec {
        start_us: since_anchor_us(start),
        lat_ns,
        cpu_ns: 0,
        status: Status::Error,
        trace: 0,
        kind: OpKind::Write {
            applied: 0,
            core_updates: 0,
            repairs: 0,
            invalidations: 0,
        },
    };
    if let Some(msg) = error {
        eprintln!("request failed: {msg}");
    }
    match (read_key, done) {
        (
            Some(key),
            Some(Frame::Done {
                trace,
                count,
                completed,
                cache,
                ..
            }),
        ) => {
            rec.trace = trace_id(trace);
            rec.status = if *count as usize != cores.len() {
                Status::Error
            } else if !completed {
                Status::Incomplete
            } else {
                Status::Ok
            };
            let frames = cores.len() as u32 + 1;
            let algo = key.algo;
            let key = log.key_id(key);
            let answer = Answer {
                key,
                state,
                fingerprint: fingerprint(&cores),
                count: cores.len(),
                cores: if algo == Algo::Max { cores } else { Vec::new() },
            };
            rec.kind = OpKind::Read {
                key,
                state,
                hit: *cache == CacheOutcome::Hit,
                answer: log.answer_id(answer),
                frames,
            };
        }
        (
            None,
            Some(Frame::Mutated {
                trace,
                applied,
                core_updates,
                repairs,
                invalidations,
                ..
            }),
        ) => {
            rec.trace = trace_id(trace);
            rec.status = if *applied == 1 {
                Status::Ok
            } else {
                Status::Error
            };
            rec.kind = OpKind::Write {
                applied: *applied as u32,
                core_updates: *core_updates as u32,
                repairs: *repairs as u32,
                invalidations: *invalidations as u32,
            };
        }
        (Some(key), _) => {
            let key = log.key_id(key);
            rec.kind = OpKind::Read {
                key,
                state,
                hit: false,
                answer: u32::MAX,
                frames: 0,
            };
        }
        (None, _) => {}
    }
    rec
}

/// The measured window: `plan.clients` closed loops, each running whole
/// rounds until `seconds` have passed, logging into `op_logs`.
pub fn window(
    plan: &Plan,
    addr: SocketAddr,
    seconds: f64,
    keep: bool,
    op_logs: Vec<Vec<OpRec>>,
) -> WindowLog {
    let mut control = Client::connect(addr).expect("connect");
    let stats_before = control.stats().expect("stats");
    let conns: Vec<(Client, i32)> = (0..plan.clients).map(|_| connect(addr)).collect();
    let barrier = Barrier::new(plan.clients);
    let deadline = Duration::from_secs_f64(seconds);
    let capacity: usize = op_logs.iter().map(Vec::capacity).sum();
    let (logs, elapsed): (Vec<ClientLog>, Vec<f64>) = std::thread::scope(|s| {
        let handles: Vec<_> = op_logs
            .into_iter()
            .zip(conns)
            .enumerate()
            .map(|(c, (ops, (mut client, session)))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rng: Rng = plan.client_rng(c);
                    let mut log = ClientLog {
                        ops,
                        ..ClientLog::default()
                    };
                    let clocks = [CpuClock::THIS_THREAD, CpuClock::of_thread(session)];
                    let mut round = Vec::new();
                    let (mut seq, mut state) = (0u64, 0u32);
                    barrier.wait();
                    let t0 = Instant::now();
                    while t0.elapsed() < deadline {
                        round.clear();
                        plan.round(&mut rng, &mut round);
                        for &op in &round {
                            seq += 1;
                            run_op(
                                &mut client,
                                &mut log,
                                plan,
                                op,
                                seq,
                                &mut state,
                                keep,
                                clocks,
                            )
                            .unwrap_or_else(|e| panic!("transport failure: {e}"));
                        }
                    }
                    (log, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .unzip()
    });
    let hwm_mb = status_mb("VmHWM");
    let log_overflow = logs.iter().map(|l| l.ops.capacity()).sum::<usize>() > capacity;
    let stats_after = control.stats().expect("stats");
    WindowLog {
        seconds: elapsed.into_iter().fold(0.0, f64::max),
        hwm_mb,
        log_overflow,
        ..merge(logs, stats_before, stats_after)
    }
}

/// Merges client logs onto one key and answer table.
fn merge(logs: Vec<ClientLog>, stats_before: CacheStats, stats_after: CacheStats) -> WindowLog {
    let mut all = ClientLog::default();
    for mut log in logs {
        let key_map: Vec<u32> = log.keys.iter().map(|&k| all.key_id(k)).collect();
        let answer_map: Vec<u32> = std::mem::take(&mut log.answers)
            .into_iter()
            .map(|a| {
                all.answer_id(Answer {
                    key: key_map[a.key as usize],
                    ..a
                })
            })
            .collect();
        for mut op in log.ops {
            if let OpKind::Read { key, answer, .. } = &mut op.kind {
                *key = key_map[*key as usize];
                if *answer != u32::MAX {
                    *answer = answer_map[*answer as usize];
                }
            }
            all.ops.push(op);
        }
        all.samples.extend(log.samples);
    }
    all.ops.sort_by_key(|o| o.start_us);
    WindowLog {
        seconds: 0.0,
        hwm_mb: 0.0,
        log_overflow: false,
        ops: all.ops,
        keys: all.keys,
        answers: all.answers,
        samples: all.samples,
        stats_before,
        stats_after,
    }
}
