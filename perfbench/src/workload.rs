//! The three workload drivers, written against the repository's public
//! APIs: `simcore::Simulation`, `fabric::Cluster`, `verbs::IbFabric`,
//! `scif::ScifFabric`, `dcfa_mpi::launch`/`Comm`, `dcfa_mpi::audit` and
//! (read-only) `bench::stitch`.
//!
//! One call runs one iteration of a workload and returns a [`Sample`]:
//! the host-clock cost of each phase, the virtual-clock results, the
//! correctness verdict and the layer counters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dcfa_mpi::{
    Communicator, KillSpec, LaunchOpts, MetricsHub, MpiConfig, MpiError, Phase, Src, StatsReport,
    TagSel, TraceBuf,
};
use fabric::{Cluster, ClusterConfig, HealthBoard, NodeId};
use scif::ScifFabric;
use simcore::{SimDuration, Simulation};
use verbs::IbFabric;

use crate::spans::{span, Open, Recorder, Span, DRIVER};
use crate::stats::percentile;
use crate::sys::{self, Clocks, Interval};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Halo256,
    Pingpong,
    Kill256,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Halo256, Workload::Pingpong, Workload::Kill256];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Halo256 => "halo256",
            Workload::Pingpong => "pingpong",
            Workload::Kill256 => "kill256",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Instrumentation switched on for one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// The engine's protocol-event ring (and the audit/stitch over it).
    pub ring: bool,
    /// The engine's latency-histogram hub (`LaunchOpts::metrics`).
    pub metrics: bool,
    /// The benchmark's own spans.
    pub spans: bool,
}

impl Mode {
    /// The configuration end-to-end metrics are measured in: the ring and
    /// auditor on for the 256-rank soaks (as in `repro --ranks 256` and
    /// the kill soak), everything off for the figure sweep.
    pub fn plain(w: Workload) -> Mode {
        let (ring, metrics) = match w {
            Workload::Halo256 => (true, false),
            Workload::Pingpong => (false, false),
            Workload::Kill256 => (true, true),
        };
        Mode {
            ring,
            metrics,
            spans: false,
        }
    }

    /// Every instrument on: the per-layer run.
    pub fn traced() -> Mode {
        Mode {
            ring: true,
            metrics: true,
            spans: true,
        }
    }
}

/// Fig. 8's committed DCFA-offload bandwidth at 4 MiB (`results/fig8.csv`).
pub const FIG8_BW_4MIB_GBS: f64 = 2.785972883789933;
/// The Fig. 9 inset 4-byte blocking round trip `repro fig9` prints, us
/// (printed to one decimal).
pub const FIG9_RTT_4B_US: f64 = 13.1;

/// Workload sizes. [`Params::full`] is the benchmark; tests shrink it.
#[derive(Debug, Clone)]
pub struct Params {
    pub ranks: usize,
    /// Halo rounds before recovery (every rank, every neighbour).
    pub rounds: u32,
    /// Fail-stop kills (kill256).
    pub kills: usize,
    /// Message sizes of the non-blocking sweep (pingpong).
    pub pp_sizes: Vec<u64>,
    /// Iterations per size point. The first `PP_WARMUP` warm up and the
    /// next [`figure_iters`] are the figures' measured window; the rest
    /// add host-clock load.
    pub pp_iters: u32,
    /// Test hook: rank 0 damages its first received payload before the
    /// content check.
    pub corrupt: bool,
    /// Test hook: trace-ring capacity override.
    pub ring_cap: Option<usize>,
    /// Test hook: rank 0 of a halo run leaves one receive posted and
    /// never completes it.
    pub strand_request: bool,
}

impl Params {
    pub fn full(w: Workload) -> Params {
        Params {
            ranks: 256,
            rounds: if w == Workload::Kill256 { 8 } else { 4 },
            kills: 6,
            pp_sizes: (2..=22).map(|p| 1u64 << p).collect(),
            pp_iters: 300,
            corrupt: false,
            ring_cap: None,
            strand_request: false,
        }
    }
}

/// One iteration of a workload.
#[derive(Debug, Default)]
pub struct Sample {
    /// Host cost inside `Simulation::run`, summed over the iteration's
    /// simulations.
    pub run: Interval,
    /// Wall time outside `run`: building the stack, launching the ranks
    /// and dropping the simulation.
    pub setup_s: f64,
    /// Wall time of the `launch` calls alone.
    pub launch_s: f64,
    /// Simulated rank processes launched.
    pub spawned: u64,
    /// Wall time of dropping the simulations.
    pub teardown_s: f64,
    /// Scheduler events processed.
    pub events: u64,
    /// Virtual makespan, summed over the iteration's simulations.
    pub vt_ns: u64,
    /// MPI operations posted.
    pub attempted: u64,
    /// Operations that returned the fail-stop errors the workload expects
    /// (`PeerFailed`, `Revoked`).
    pub expected_errors: u64,
    /// Operations whose outcome broke a gate (unexpected error, corrupt
    /// payload).
    pub failed: u64,
    /// Gate violations; empty means the iteration is correct.
    pub violations: Vec<String>,
    /// Digest of every virtual-clock observable; equal across all
    /// iterations of one seed, whatever the instrumentation.
    pub fingerprint: u64,
    /// CPU of the rank threads over their whole lives (body, MPI set-up
    /// and finalize), summed; traced iterations only.
    pub rank_thread_cpu_s: f64,
    /// CPU of the live DCFA daemon threads over `run`.
    pub daemon_cpu_s: f64,
    /// Peak resident set of the iteration's process, MiB.
    pub peak_rss_mb: f64,
    /// Virtual results, layer counters and span summaries, by metric name.
    pub values: BTreeMap<String, f64>,
    /// Spans of a traced iteration, driver first.
    pub spans: Vec<Span>,
    /// Rank recorders awaiting the merge, with their parent run span.
    rank_recs: Vec<(Recorder, Open)>,
}

impl Sample {
    fn add(&mut self, k: &str, v: f64) {
        *self.values.entry(k.to_string()).or_insert(0.0) += v;
    }

    /// A sample that carries only a violation.
    pub fn failed(violation: String) -> Sample {
        Sample {
            violations: vec![violation],
            ..Sample::default()
        }
    }

    /// A named value (0 when the workload never set it).
    pub fn value(&self, k: &str) -> f64 {
        self.values.get(k).copied().unwrap_or(0.0)
    }

    /// Line-oriented encoding, one field per line, for handing a sample
    /// from the iteration's process to the driver; floats print in their
    /// shortest round-trip form.
    pub fn encode(&self) -> String {
        let mut o = String::new();
        for (k, v) in self.floats() {
            o.push_str(&format!("f {k} {v:?}\n"));
        }
        for (k, v) in self.ints() {
            o.push_str(&format!("u {k} {v}\n"));
        }
        for (k, v) in &self.values {
            o.push_str(&format!("v {k} {v:?}\n"));
        }
        for v in &self.violations {
            o.push_str(&format!("x {}\n", v.replace('\n', " ")));
        }
        o
    }

    fn floats(&self) -> [(&'static str, f64); 11] {
        [
            ("run.wall_s", self.run.wall_s),
            ("run.process_cpu_s", self.run.process_cpu_s),
            ("run.thread_cpu_s", self.run.thread_cpu_s),
            ("run.user_s", self.run.usage.user_s),
            ("run.sys_s", self.run.usage.sys_s),
            ("setup_s", self.setup_s),
            ("launch_s", self.launch_s),
            ("teardown_s", self.teardown_s),
            ("rank_thread_cpu_s", self.rank_thread_cpu_s),
            ("daemon_cpu_s", self.daemon_cpu_s),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }

    fn ints(&self) -> [(&'static str, u64); 9] {
        [
            ("run.vcsw", self.run.usage.vcsw),
            ("run.ivcsw", self.run.usage.ivcsw),
            ("spawned", self.spawned),
            ("events", self.events),
            ("vt_ns", self.vt_ns),
            ("attempted", self.attempted),
            ("expected_errors", self.expected_errors),
            ("failed", self.failed),
            ("fingerprint", self.fingerprint),
        ]
    }

    /// Inverse of [`Sample::encode`].
    pub fn decode(text: &str) -> Result<Sample, String> {
        let mut s = Sample::default();
        for line in text.lines() {
            let (tag, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad line {line:?}"))?;
            if tag == "x" {
                s.violations.push(rest.to_string());
                continue;
            }
            let (k, v) = rest
                .split_once(' ')
                .ok_or_else(|| format!("bad line {line:?}"))?;
            let bad = || format!("bad value in {line:?}");
            match tag {
                "f" => {
                    let v: f64 = v.parse().map_err(|_| bad())?;
                    *match k {
                        "run.wall_s" => &mut s.run.wall_s,
                        "run.process_cpu_s" => &mut s.run.process_cpu_s,
                        "run.thread_cpu_s" => &mut s.run.thread_cpu_s,
                        "run.user_s" => &mut s.run.usage.user_s,
                        "run.sys_s" => &mut s.run.usage.sys_s,
                        "setup_s" => &mut s.setup_s,
                        "launch_s" => &mut s.launch_s,
                        "teardown_s" => &mut s.teardown_s,
                        "rank_thread_cpu_s" => &mut s.rank_thread_cpu_s,
                        "daemon_cpu_s" => &mut s.daemon_cpu_s,
                        "peak_rss_mb" => &mut s.peak_rss_mb,
                        _ => return Err(format!("unknown field {k}")),
                    } = v;
                }
                "u" => {
                    let v: u64 = v.parse().map_err(|_| bad())?;
                    *match k {
                        "run.vcsw" => &mut s.run.usage.vcsw,
                        "run.ivcsw" => &mut s.run.usage.ivcsw,
                        "spawned" => &mut s.spawned,
                        "events" => &mut s.events,
                        "vt_ns" => &mut s.vt_ns,
                        "attempted" => &mut s.attempted,
                        "expected_errors" => &mut s.expected_errors,
                        "failed" => &mut s.failed,
                        "fingerprint" => &mut s.fingerprint,
                        _ => return Err(format!("unknown field {k}")),
                    } = v;
                }
                "v" => {
                    s.values
                        .insert(k.to_string(), v.parse().map_err(|_| bad())?);
                }
                _ => return Err(format!("bad line {line:?}")),
            }
        }
        Ok(s)
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(msg());
        }
    }

    /// Merge the driver's spans (whose indices stay put) and every rank's
    /// into [`Sample::spans`].
    fn merge_spans(&mut self, mut driver: Recorder) {
        driver.drain_into(&mut self.spans, None);
        for (mut r, root) in std::mem::take(&mut self.rank_recs) {
            r.drain_into(&mut self.spans, root);
        }
    }
}

pub fn run(w: Workload, seed: u64, p: &Params, mode: Mode) -> Sample {
    match w {
        Workload::Halo256 => halo(seed, p, mode, false),
        Workload::Kill256 => halo(seed, p, mode, true),
        Workload::Pingpong => pingpong(seed, p, mode),
    }
}

// ---- shared plumbing ---------------------------------------------------------

/// SplitMix64: the seed expander for payloads and kill schedules.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded payload `src` sends in `round`.
pub fn payload(seed: u64, src: usize, round: u64, len: usize) -> Vec<u8> {
    let key = splitmix64(seed ^ ((src as u64) << 40) ^ round).to_le_bytes();
    (0..len).map(|i| key[i % 8] ^ (i >> 3) as u8).collect()
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The device stack of one simulation.
struct Stack {
    sim: Simulation,
    cluster: Arc<Cluster>,
    ib: Arc<IbFabric>,
    scif: Arc<ScifFabric>,
}

impl Stack {
    fn build(rec: &mut Recorder, ccfg: ClusterConfig) -> Stack {
        let sim = rec.time("Simulation::new", 0, Simulation::new);
        let cluster = rec.time("Cluster::new", 0, || Cluster::new(sim.scheduler(), ccfg));
        let ib = rec.time("IbFabric::new", 0, || IbFabric::new(cluster.clone()));
        let scif = rec.time("ScifFabric::new", 0, || ScifFabric::new(cluster.clone()));
        Stack {
            sim,
            cluster,
            ib,
            scif,
        }
    }

    /// Bytes moved over every channel of every node.
    fn fabric_bytes(&self) -> u64 {
        (0..self.cluster.num_nodes())
            .flat_map(|n| self.cluster.fabric_stats(NodeId(n)).channels)
            .map(|c| c.bytes)
            .sum()
    }
}

/// Name prefix of the DCFA daemon threads: per-node acceptors and lease
/// reapers, and one handler per client connection.
const DAEMON_THREADS: &str = "sim:dcfa";

/// Measures the DCFA daemon threads' CPU from outside. Connection
/// handlers exit when their rank finalizes, so besides the sample after
/// `run` the rank that ends its workload body last (before any rank can
/// finalize) samples them too; each thread counts with its highest
/// reading. Only traced iterations sample.
struct DaemonProbe {
    on: bool,
    seen: sys::SeenCpu,
    bodies_left: std::sync::atomic::AtomicUsize,
}

impl DaemonProbe {
    fn new(on: bool, bodies: usize) -> Arc<DaemonProbe> {
        Arc::new(DaemonProbe {
            on,
            seen: sys::SeenCpu::default(),
            bodies_left: bodies.into(),
        })
    }

    /// Called by every rank that finishes its workload body.
    fn body_done(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        if self.on && self.bodies_left.fetch_sub(1, Relaxed) == 1 {
            self.seen.sample(DAEMON_THREADS);
        }
    }
}

/// What [`execute`] reads off a finished simulation.
#[derive(Debug, Default)]
struct Ran {
    fabric_bytes: u64,
    dcfa_commands: u64,
    /// The driver's `Simulation::run` span, parent of the rank spans.
    run_span: Open,
}

/// Launch the ranks, run the simulation and tear it down, charging each
/// phase to `s`. `build_start` is when the stack build began. A failed
/// run is recorded as a violation.
#[allow(clippy::too_many_arguments)]
fn execute<F>(
    s: &mut Sample,
    rec: &mut Recorder,
    mut stack: Stack,
    build_start: Instant,
    cfg: MpiConfig,
    n: usize,
    opts: LaunchOpts,
    daemons: &DaemonProbe,
    body: F,
) -> Ran
where
    F: Fn(&mut simcore::Ctx, &mut dcfa_mpi::Comm) + Send + Sync + 'static,
{
    let t = Instant::now();
    let dcfa = rec.time("launch", 0, || {
        dcfa_mpi::launch(&stack.sim, &stack.ib, &stack.scif, cfg, n, opts, body)
    });
    s.launch_s += t.elapsed().as_secs_f64();
    s.spawned += n as u64;
    s.setup_s += build_start.elapsed().as_secs_f64();

    let daemon_cpu0: u64 = if rec.on() {
        sys::named_threads_cpu_ns(DAEMON_THREADS)
            .iter()
            .map(|t| t.1)
            .sum()
    } else {
        0
    };
    let run_span = rec.open("Simulation::run", 0);
    let a = Clocks::now();
    let res = stack.sim.run();
    let b = Clocks::now();
    let vt_end = res.as_ref().map_or(0, |r| r.final_time.0);
    rec.close(run_span, vt_end);
    if rec.on() {
        daemons.seen.sample(DAEMON_THREADS);
        s.daemon_cpu_s += daemons.seen.total_ns().saturating_sub(daemon_cpu0) as f64 * 1e-9;
    }
    s.run.add(&Interval::between(&a, &b));
    let mut ran = Ran {
        run_span,
        ..Ran::default()
    };
    match res {
        Ok(r) => {
            s.events += r.events_processed;
            s.vt_ns += r.final_time.0;
            ran.fabric_bytes = stack.fabric_bytes();
            ran.dcfa_commands = dcfa.map_or(0, |d| d.snapshot().commands);
        }
        Err(e) => s.violations.push(format!("simulation failed: {e}")),
    }
    let t = Instant::now();
    rec.time("Simulation::drop", vt_end, move || drop(stack));
    let td = t.elapsed().as_secs_f64();
    s.teardown_s += td;
    s.setup_s += td;
    ran
}

/// Audit the ring (a gate) and, on traced iterations, stitch it.
fn audit_and_stitch(s: &mut Sample, rec: &mut Recorder, tracer: &TraceBuf, vt: u64) {
    let events = tracer.snapshot();
    let dropped = tracer.dropped();
    s.add("trace.records", events.len() as f64);
    s.add("trace.dropped", dropped as f64);
    s.check(dropped == 0, || {
        format!("trace ring dropped {dropped} events (audit unbound)")
    });
    let t = Instant::now();
    let audit = rec.time("audit", vt, || dcfa_mpi::audit(&events));
    s.add("trace.audit_s", t.elapsed().as_secs_f64());
    if let Err(errs) = audit {
        for e in errs.iter().take(5) {
            s.violations.push(format!("auditor: {e}"));
        }
    }
    if rec.on() {
        let t = Instant::now();
        let cp = rec.time("stitch", vt, || {
            std::hint::black_box(bench::stitch::stitch(&events, dropped));
            bench::stitch::critical_path(&events)
        });
        s.add("stitch.s", t.elapsed().as_secs_f64());
        if let Some(cp) = cp {
            for (kind, ns) in &cp.breakdown {
                s.add(&format!("cp.{kind}_vns"), *ns as f64);
            }
        }
    }
}

/// Engine and MR-cache counters summed over ranks.
fn add_rank_counters(s: &mut Sample, reports: &[StatsReport]) {
    let sum = |f: &dyn Fn(&StatsReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    s.add("engine.eager_sends", sum(&|r| r.comm.eager_sends));
    s.add("engine.rndv_sends", sum(&|r| r.comm.rndv_sends));
    s.add("engine.offload_syncs", sum(&|r| r.comm.offload_syncs));
    s.add("engine.packets", sum(&|r| r.comm.packets_processed));
    s.add(
        "engine.doorbells_coalesced",
        sum(&|r| r.comm.doorbells_coalesced),
    );
    s.add(
        "engine.retries",
        sum(&|r| r.comm.wr_retries + r.comm.conn_retries),
    );
    s.add("engine.pairs", sum(&|r| r.comm.pairs_established));
    let per_rank = reports.iter().map(|r| r.comm.comm_buffer_bytes).max();
    let prev = s.value("engine.bytes_per_rank");
    s.values.insert(
        "engine.bytes_per_rank".into(),
        prev.max(per_rank.unwrap_or(0) as f64),
    );
    s.add("mrcache.hits", sum(&|r| r.mr_cache.hits));
    s.add("mrcache.misses", sum(&|r| r.mr_cache.misses));
}

fn mix_report(h: &mut Fnv, r: &StatsReport) {
    let c = &r.comm;
    for w in [
        c.eager_sends,
        c.rndv_sends,
        c.offload_syncs,
        c.bytes_sent,
        c.bytes_received,
        c.packets_processed,
        c.credit_grants,
        c.pairs_established,
        c.peer_deaths_detected,
        c.revokes_observed,
        c.reqs_revoked,
        c.dead_reclaimed,
        c.agreement_restarts,
        r.mr_cache.hits,
        r.mr_cache.misses,
    ] {
        h.mix(w);
    }
}

// ---- halo256 and kill256 -----------------------------------------------------

/// What one rank of the halo soak reports back.
#[derive(Debug, Clone, Default)]
struct RankOut {
    attempted: u64,
    expected_errors: u64,
    corrupt: u64,
    unexpected: Vec<String>,
    report: Option<StatsReport>,
    first_err_vt: Option<u64>,
    shrink_vt: Option<u64>,
    sub_size: usize,
    post_ok: u64,
    mr_pinned: usize,
    reqs_live: usize,
    rec: Option<Recorder>,
}

impl RankOut {
    fn error(&mut self, me: usize, e: MpiError, kills: bool, vt: u64) {
        match e {
            MpiError::PeerFailed(_) | MpiError::Revoked if kills => {
                self.expected_errors += 1;
                self.first_err_vt.get_or_insert(vt);
            }
            e => self.unexpected.push(format!("rank {me}: unexpected {e:?}")),
        }
    }
}

/// Ring neighbours at offsets +/-1 and +/-2 (deduplicated on tiny rings).
fn ring_peers(me: usize, n: usize) -> Vec<usize> {
    let mut peers = Vec::new();
    for off in [1usize, 2, n - 1, n - 2] {
        let p = (me + off) % n;
        if p != me && !peers.contains(&p) {
            peers.push(p);
        }
    }
    peers
}

/// The seeded kill schedule: `kills` distinct victims, each killed as it
/// enters one of eight MPI operations in the middle of phase 1 (whose
/// last operation is `max_after_ops`), so every corpse is dead before the
/// shrink agreement. The narrow window lets the seed vary who dies and
/// exactly when, while every seed runs about as much of phase 1. Over
/// ten seeds the event count ranged 2.3% and the virtual makespan 4%;
/// drawing from all of phase 1 ranged them 5% and 7.6%.
pub fn kill_schedule(seed: u64, ranks: usize, kills: usize, max_after_ops: u64) -> Vec<KillSpec> {
    let mut state = seed ^ 0x6b69_6c6c;
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let mut out: Vec<KillSpec> = Vec::new();
    while out.len() < kills.min(ranks.saturating_sub(4)) {
        let rank = (next() % ranks as u64) as usize;
        if out.iter().all(|k| k.rank != rank) {
            let after_ops = max_after_ops / 2 + next() % 8;
            out.push(KillSpec { rank, after_ops });
        }
    }
    out
}

const HALO: usize = 1024;
const PARK_TAG: u32 = 777;
/// Verified rounds on the shrunk world (kill256).
const POST_ROUNDS: u32 = 2;

fn halo(seed: u64, p: &Params, mode: Mode, kills: bool) -> Sample {
    let mut s = Sample::default();
    let mut rec = Recorder::new(mode.spans, DRIVER);
    let n = p.ranks;
    let build_start = Instant::now();
    let stack = Stack::build(&mut rec, ClusterConfig::with_nodes(n.max(2)));
    let cfg = MpiConfig {
        srq_depth: Some(256),
        peer_ttl: kills.then(|| SimDuration::from_micros(50)),
        ..MpiConfig::dcfa()
    };
    let per_rank_records = if kills { 4096 } else { 2048 };
    let cap = p.ring_cap.unwrap_or_else(|| {
        (n * per_rank_records)
            .next_power_of_two()
            .max(cfg.trace_capacity)
    });
    let tracer = mode.ring.then(|| TraceBuf::new(cap));
    let hub = mode.metrics.then(MetricsHub::new);
    let board = kills.then(|| HealthBoard::new(n));
    let max_after_ops = 1 + u64::from(p.rounds) * 2 * ring_peers(0, n).len() as u64;
    let schedule = if kills {
        kill_schedule(seed, n, p.kills, max_after_ops)
    } else {
        Vec::new()
    };
    let opts = LaunchOpts {
        tracer: tracer.clone(),
        metrics: hub.clone(),
        kills: schedule.clone(),
        health: board.clone(),
        ..Default::default()
    };
    let outs: Arc<Mutex<Vec<Option<RankOut>>>> = Arc::new(Mutex::new(vec![None; n]));
    let outs2 = outs.clone();
    let (rounds, corrupt, spans_on) = (p.rounds, p.corrupt, mode.spans);
    let strand = p.strand_request;
    let rank_cpu = sys::ExitCpu::default();
    let rank_cpu2 = rank_cpu.clone();
    let daemons = DaemonProbe::new(spans_on, n - schedule.len());
    let daemons2 = daemons.clone();
    let body = move |ctx: &mut simcore::Ctx, comm: &mut dcfa_mpi::Comm| {
        let (me, n) = (comm.rank(), comm.size());
        if spans_on {
            rank_cpu2.charge_at_exit();
        }
        let mut rec = Recorder::new(spans_on, me as i32);
        let body_span = if spans_on {
            rec.open("body", ctx.now().0)
        } else {
            None
        };
        let mut o = RankOut::default();
        let peers = ring_peers(me, n);
        let alloc = |rec: &mut Recorder, ctx: &mut simcore::Ctx, comm: &dcfa_mpi::Comm, len| {
            span!(rec, ctx, "alloc", comm.alloc(len).expect("halo buffer"))
        };
        let sbufs: Vec<_> = peers
            .iter()
            .map(|_| alloc(&mut rec, ctx, comm, HALO as u64))
            .collect();
        let rbufs: Vec<_> = peers
            .iter()
            .map(|_| alloc(&mut rec, ctx, comm, HALO as u64))
            .collect();
        let pbuf = alloc(&mut rec, ctx, comm, 64);
        // kill256: a parked receive, drained by the revocation flood, keeps
        // every rank out of the shrink agreement until a failure is seen.
        let park = kills.then(|| {
            o.attempted += 1;
            let src = Src::Rank((me + 1) % n);
            span!(
                rec,
                ctx,
                "irecv",
                comm.irecv(ctx, &pbuf, src, TagSel::Tag(PARK_TAG))
            )
        });
        for round in 0..rounds {
            let mut reqs = Vec::with_capacity(peers.len() * 2);
            for (i, &q) in peers.iter().enumerate() {
                let data = payload(seed, me, u64::from(round), HALO);
                span!(rec, ctx, "write", comm.write(&sbufs[i], 0, &data));
                o.attempted += 2;
                let src = Src::Rank(q);
                let rr = span!(
                    rec,
                    ctx,
                    "irecv",
                    comm.irecv(ctx, &rbufs[i], src, TagSel::Tag(round))
                );
                let sr = span!(rec, ctx, "isend", comm.isend(ctx, &sbufs[i], q, round));
                for (is_recv, r) in [(true, rr), (false, sr)] {
                    match r {
                        Ok(r) => reqs.push((i, is_recv, r)),
                        Err(e) => o.error(me, e, kills, ctx.now().0),
                    }
                }
            }
            let mut delivered = vec![false; peers.len()];
            for (i, is_recv, r) in reqs {
                match span!(rec, ctx, "wait", comm.wait(ctx, r)) {
                    Ok(_) => delivered[i] |= is_recv,
                    Err(e) => o.error(me, e, kills, ctx.now().0),
                }
            }
            for (i, &q) in peers.iter().enumerate().filter(|(i, _)| delivered[*i]) {
                let mut got = span!(rec, ctx, "read", comm.read_vec(&rbufs[i]));
                if corrupt && me == 0 && round == 0 && i == 0 {
                    got[0] ^= 0xff;
                }
                if got != payload(seed, q, u64::from(round), HALO) {
                    o.corrupt += 1;
                }
            }
        }
        if let Some(park) = park {
            // Recovery: observers revoke, the park drains with an error,
            // every survivor agrees on the shrunk world and runs verified
            // rounds on it.
            if o.first_err_vt.is_some() {
                span!(rec, ctx, "revoke", comm.revoke(ctx));
            }
            match park {
                Ok(r) => match span!(rec, ctx, "wait", comm.wait(ctx, r)) {
                    Ok(st) => o
                        .unexpected
                        .push(format!("rank {me}: park resolved as {st:?}")),
                    Err(e) => o.error(me, e, kills, ctx.now().0),
                },
                Err(e) => o.error(me, e, kills, ctx.now().0),
            }
            let shrink_span = if spans_on {
                rec.open("shrink", ctx.now().0)
            } else {
                None
            };
            match comm.shrink(ctx) {
                Ok(mut sub) => {
                    rec.close(shrink_span, ctx.now().0);
                    o.shrink_vt = Some(ctx.now().0);
                    o.sub_size = sub.size();
                    let (sr, sn) = (sub.rank(), sub.size());
                    let (next, prev) = ((sr + 1) % sn, (sr + sn - 1) % sn);
                    for round in 0..POST_ROUNDS {
                        let tag = 0x4000 + u64::from(round);
                        let data = payload(seed, sr, tag, HALO);
                        span!(rec, ctx, "write", sub.cluster().write(&sbufs[0], 0, &data));
                        o.attempted += 2;
                        let res = span!(
                            rec,
                            ctx,
                            "sendrecv",
                            sub.sendrecv(ctx, &sbufs[0], next, &rbufs[0], prev, round)
                        );
                        match res {
                            Ok(_) => o.post_ok += 1,
                            Err(e) => o.unexpected.push(format!("rank {me}: post-shrink {e:?}")),
                        }
                        let got = span!(rec, ctx, "read", sub.cluster().read_vec(&rbufs[0]));
                        if got != payload(seed, prev, tag, HALO) {
                            o.corrupt += 1;
                        }
                    }
                }
                Err(e) => {
                    rec.close(shrink_span, ctx.now().0);
                    o.unexpected
                        .push(format!("rank {me}: shrink failed: {e:?}"));
                }
            }
        }
        if strand && me == 0 {
            let buf = comm.alloc(64).expect("stranded buffer");
            let _ = comm.irecv(ctx, &buf, Src::Rank(1), TagSel::Tag(0x7777));
        }
        for b in sbufs.iter().chain(rbufs.iter()).chain([&pbuf]) {
            span!(rec, ctx, "free", comm.free(b));
        }
        o.report = Some(comm.dump());
        o.mr_pinned = comm.mr_pinned_len();
        o.reqs_live = comm.requests_live();
        rec.close(body_span, if spans_on { ctx.now().0 } else { 0 });
        daemons2.body_done();
        o.rec = Some(rec);
        outs2.lock().expect("rank outputs poisoned")[me] = Some(o);
    };
    let ran = execute(
        &mut s,
        &mut rec,
        stack,
        build_start,
        cfg,
        n,
        opts,
        &daemons,
        body,
    );
    s.rank_thread_cpu_s = rank_cpu.total_s();

    // ---- gates and layer counters
    let mut outs = std::mem::take(&mut *outs.lock().expect("rank outputs poisoned"));
    let killed: Vec<usize> = schedule.iter().map(|k| k.rank).collect();
    let mut h = Fnv::new();
    h.mix(n as u64);
    h.mix(s.vt_ns);
    h.mix(s.events);
    for k in &schedule {
        h.mix(k.rank as u64);
        h.mix(k.after_ops);
    }
    let mut reports = Vec::new();
    let (mut first_err, mut last_shrink) = (u64::MAX, 0u64);
    for (r, out) in outs.iter_mut().enumerate() {
        let dead = killed.contains(&r);
        match out {
            None if !dead => s
                .violations
                .push(format!("rank {r}: survivor never finished")),
            Some(_) if dead => s.violations.push(format!("rank {r}: killed rank finished")),
            None => h.mix(u64::MAX),
            Some(o) => {
                s.attempted += o.attempted;
                s.expected_errors += o.expected_errors;
                s.failed += o.unexpected.len() as u64 + o.corrupt;
                s.violations.extend(o.unexpected.iter().take(5).cloned());
                for w in [
                    o.attempted,
                    o.expected_errors,
                    o.corrupt,
                    o.sub_size as u64,
                    o.post_ok,
                ] {
                    h.mix(w);
                }
                if let Some(rep) = o.report {
                    mix_report(&mut h, &rep);
                    reports.push(rep);
                }
                if kills {
                    let want = n - killed.len();
                    s.check(o.sub_size == want, || {
                        format!("rank {r}: shrank to {} ranks, expected {want}", o.sub_size)
                    });
                    s.check(o.post_ok == u64::from(POST_ROUNDS), || {
                        format!(
                            "rank {r}: {} of {POST_ROUNDS} post-shrink rounds",
                            o.post_ok
                        )
                    });
                    first_err = first_err.min(o.first_err_vt.unwrap_or(u64::MAX));
                    last_shrink = last_shrink.max(o.shrink_vt.unwrap_or(0));
                }
                s.check(o.mr_pinned == 0, || {
                    format!("rank {r}: {} MR leases pinned", o.mr_pinned)
                });
                s.check(o.reqs_live == 0, || {
                    format!("rank {r}: {} requests stranded", o.reqs_live)
                });
            }
        }
    }
    let corrupt: u64 = outs.iter().flatten().map(|o| o.corrupt).sum();
    s.check(corrupt == 0, || format!("{corrupt} corrupted payloads"));
    s.add("fabric.bytes", ran.fabric_bytes as f64);
    s.add("dcfa.commands", ran.dcfa_commands as f64);
    add_rank_counters(&mut s, &reports);
    if let Some(b) = &board {
        let want = killed.len() as u64;
        s.check(b.kills() == want, || {
            format!("{} kills fired, scheduled {want}", b.kills())
        });
        s.check(b.detections() == want, || {
            format!("{} deaths detected, expected {want}", b.detections())
        });
        let p99 = percentile(&b.detection_latency_samples(), 99);
        s.add("fabric.detect_p99_vus", p99 as f64 / 1e3);
        h.mix(p99);
        h.mix(b.revoke_epoch());
        h.mix(b.shrink_count());
        if first_err < last_shrink {
            let rec_ns = last_shrink - first_err;
            s.add("recovery_us", rec_ns as f64 / 1e3);
            h.mix(rec_ns);
        } else {
            s.violations.push("no recovery window observed".into());
        }
    }
    s.fingerprint = h.0;
    if s.attempted > 0 {
        s.add(
            "ops_failed_share",
            s.expected_errors as f64 / s.attempted as f64,
        );
    }
    if let Some(hub) = &hub {
        add_ctrl_p99(&mut s, hub);
    }
    if let Some(t) = &tracer {
        let vt = s.vt_ns;
        audit_and_stitch(&mut s, &mut rec, t, vt);
    }
    for o in outs.iter_mut().flatten() {
        if let Some(r) = o.rec.take() {
            s.rank_recs.push((r, ran.run_span));
        }
    }
    s.merge_spans(rec);
    s
}

fn add_ctrl_p99(s: &mut Sample, hub: &MetricsHub) {
    let p99 = hub
        .merged_by_phase()
        .into_iter()
        .find(|(ph, _)| *ph == Phase::CtrlRoundtrip)
        .map_or(0.0, |(_, h)| h.p99());
    s.add("dcfa.ctrl_p99_vns", p99);
}

// ---- pingpong ----------------------------------------------------------------

const PP_WARMUP: u32 = 4;

/// Measured iterations per size in the figure sweeps (`bench::iters_for`
/// for Figs. 7/8; the Fig. 9 inset measures 30 at 4 B).
fn figure_iters(size: u64) -> u32 {
    match size {
        0..=4096 => 30,
        4097..=262_144 => 12,
        _ => 6,
    }
}

fn pingpong(seed: u64, p: &Params, mode: Mode) -> Sample {
    let mut s = Sample::default();
    let mut rec = Recorder::new(mode.spans, DRIVER);
    let hub = mode.metrics.then(MetricsHub::new);
    let mut h = Fnv::new();
    let (mut copy_ns, mut copy_kib) = (0.0, 0.0);
    let points = p.pp_sizes.iter().map(|&sz| (sz, false)).chain([(4, true)]);
    for (size, blocking) in points {
        let wall0 = s.run.wall_s;
        let rtt = pp_point(&mut s, &mut rec, seed, size, p, mode, blocking, hub.clone());
        h.mix(rtt.to_bits());
        let iters = u64::from(p.pp_iters.max(PP_WARMUP + figure_iters(size)));
        if !blocking && size >= 256 << 10 {
            copy_ns += (s.run.wall_s - wall0) * 1e9;
            copy_kib += (2 * size * iters) as f64 / 1024.0;
        }
        if blocking {
            s.add("rtt_4b_us", rtt);
        } else if size == 4 << 20 {
            s.add("bw_4mib_gbs", size as f64 / (rtt * 1e-6) / 1e9);
        }
    }
    if copy_kib > 0.0 {
        s.add("fabric.copy_ns_per_kib", copy_ns / copy_kib);
    }
    if p.pp_sizes.contains(&(4 << 20)) {
        s.violations.extend(reference_violations(
            s.values.get("rtt_4b_us").copied().unwrap_or(f64::NAN),
            s.values.get("bw_4mib_gbs").copied().unwrap_or(f64::NAN),
        ));
    }
    h.mix(s.vt_ns);
    h.mix(s.events);
    s.fingerprint = h.0;
    s.add("ops_failed_share", 0.0);
    if let Some(hub) = &hub {
        add_ctrl_p99(&mut s, hub);
    }
    s.merge_spans(rec);
    s
}

/// The paper-figure gates of `pingpong`: Fig. 8's 4 MiB offload bandwidth
/// bit for bit, and the Fig. 9 inset round trip as `repro fig9` prints it.
pub fn reference_violations(rtt_4b_us: f64, bw_4mib_gbs: f64) -> Vec<String> {
    let mut v = Vec::new();
    if bw_4mib_gbs != FIG8_BW_4MIB_GBS {
        v.push(format!(
            "4 MiB bandwidth {bw_4mib_gbs} GB/s differs from Fig. 8's {FIG8_BW_4MIB_GBS}"
        ));
    }
    if (rtt_4b_us - FIG9_RTT_4B_US).abs() >= 0.05 || rtt_4b_us.is_nan() {
        v.push(format!(
            "4-byte round trip {rtt_4b_us:.3} us differs from Fig. 9's {FIG9_RTT_4B_US}"
        ));
    }
    v
}

/// The stamp rank `src` writes over the head of its payload in iteration
/// `i`, so every iteration delivers fresh bytes.
fn stamp(seed: u64, src: usize, i: u32) -> [u8; 8] {
    splitmix64(seed ^ ((src as u64) << 48) ^ u64::from(i)).to_le_bytes()
}

/// One size point: a fresh two-rank simulation whose first iterations
/// are exactly the figure sweep's (warm-up, then the measured window),
/// followed by load iterations up to `pp_iters`. Returns the window's
/// mean round trip (blocking) or exchange time (non-blocking), in us.
#[allow(clippy::too_many_arguments)]
fn pp_point(
    s: &mut Sample,
    rec: &mut Recorder,
    seed: u64,
    size: u64,
    p: &Params,
    mode: Mode,
    blocking: bool,
    hub: Option<MetricsHub>,
) -> f64 {
    let window = figure_iters(size);
    let iters = p.pp_iters.max(PP_WARMUP + window);
    let build_start = Instant::now();
    let stack = Stack::build(rec, ClusterConfig::paper());
    let cfg = MpiConfig::dcfa();
    let cap = p.ring_cap.unwrap_or_else(|| {
        (iters as usize * 64)
            .next_power_of_two()
            .max(cfg.trace_capacity)
    });
    let tracer = mode.ring.then(|| TraceBuf::new(cap));
    let opts = LaunchOpts {
        tracer: tracer.clone(),
        metrics: hub,
        ..Default::default()
    };
    /// What one rank of a size point reports back.
    struct PpOut {
        rtt: f64,
        attempted: u64,
        bad: Vec<String>,
        rec: Recorder,
        report: StatsReport,
    }
    let outs: Arc<Mutex<[Option<PpOut>; 2]>> = Arc::new(Mutex::new([None, None]));
    let outs2 = outs.clone();
    let (corrupt, spans_on) = (p.corrupt, mode.spans);
    let rank_cpu = sys::ExitCpu::default();
    let rank_cpu2 = rank_cpu.clone();
    let daemons = DaemonProbe::new(spans_on, 2);
    let daemons2 = daemons.clone();
    let body = move |ctx: &mut simcore::Ctx, comm: &mut dcfa_mpi::Comm| {
        let me = comm.rank();
        if spans_on {
            rank_cpu2.charge_at_exit();
        }
        let peer = 1 - me;
        let mut rec = Recorder::new(spans_on, me as i32);
        let body_span = if spans_on {
            rec.open("body", ctx.now().0)
        } else {
            None
        };
        let mut bad = Vec::new();
        let mut corrupt_left = corrupt && me == 0;
        let cl = comm.cluster().clone();
        let sbuf = span!(
            rec,
            ctx,
            "alloc",
            cl.alloc_pages(comm.mem(), size).expect("send buffer")
        );
        let rbuf = span!(
            rec,
            ctx,
            "alloc",
            cl.alloc_pages(comm.mem(), size).expect("recv buffer")
        );
        let head = (size as usize).min(8);
        let data = payload(seed, me, size, size as usize);
        span!(rec, ctx, "write", cl.write(&sbuf, 0, &data));
        let mut got = [0u8; 8];
        let (mut t0, mut t1) = (ctx.now(), ctx.now());
        let mut attempted = 0u64;
        for i in 0..iters {
            if i == PP_WARMUP {
                t0 = ctx.now();
            }
            if i == PP_WARMUP + window {
                t1 = ctx.now();
            }
            span!(
                rec,
                ctx,
                "write",
                cl.write(&sbuf, 0, &stamp(seed, me, i)[..head])
            );
            attempted += 2;
            let res = if blocking {
                let (first, second) = if me == 0 { (1, 2) } else { (2, 1) };
                let src = Src::Rank(peer);
                if me == 0 {
                    span!(rec, ctx, "send", comm.send(ctx, &sbuf, peer, first)).and_then(|_| {
                        span!(
                            rec,
                            ctx,
                            "recv",
                            comm.recv(ctx, &rbuf, src, TagSel::Tag(second))
                        )
                        .map(|_| ())
                    })
                } else {
                    span!(
                        rec,
                        ctx,
                        "recv",
                        comm.recv(ctx, &rbuf, src, TagSel::Tag(second))
                    )
                    .and_then(|_| span!(rec, ctx, "send", comm.send(ctx, &sbuf, peer, first)))
                }
            } else {
                let src = Src::Rank(peer);
                let rr = span!(
                    rec,
                    ctx,
                    "irecv",
                    comm.irecv(ctx, &rbuf, src, TagSel::Tag(3))
                );
                let sr = span!(rec, ctx, "isend", comm.isend(ctx, &sbuf, peer, 3));
                rr.and_then(|rr| {
                    let sr = sr?;
                    span!(rec, ctx, "wait", comm.wait(ctx, sr))?;
                    span!(rec, ctx, "wait", comm.wait(ctx, rr)).map(|_| ())
                })
            };
            if let Err(e) = res {
                bad.push(format!("size {size}: rank {me}: {e:?}"));
                break;
            }
            span!(rec, ctx, "read", cl.read(&rbuf, 0, &mut got[..head]));
            if std::mem::take(&mut corrupt_left) {
                got[0] ^= 0xff;
            }
            if got[..head] != stamp(seed, peer, i)[..head] {
                bad.push(format!(
                    "size {size}: rank {me}: corrupt payload in iteration {i}"
                ));
            }
        }
        let mut want = payload(seed, peer, size, size as usize);
        want[..head].copy_from_slice(&stamp(seed, peer, iters - 1)[..head]);
        if span!(rec, ctx, "read", cl.read_vec(&rbuf)) != want {
            bad.push(format!("size {size}: rank {me}: corrupt final payload"));
        }
        if iters == PP_WARMUP + window {
            t1 = ctx.now();
        }
        let rtt = (t1 - t0).as_micros_f64() / f64::from(window);
        rec.close(body_span, if spans_on { ctx.now().0 } else { 0 });
        daemons2.body_done();
        let report = comm.dump();
        outs2.lock().expect("rank outputs poisoned")[me] = Some(PpOut {
            rtt,
            attempted,
            bad,
            rec,
            report,
        });
    };
    let vt0 = s.vt_ns;
    let ran = execute(s, rec, stack, build_start, cfg, 2, opts, &daemons, body);
    s.rank_thread_cpu_s += rank_cpu.total_s();
    s.add("fabric.bytes", ran.fabric_bytes as f64);
    s.add("dcfa.commands", ran.dcfa_commands as f64);
    let mut outs = std::mem::take(&mut *outs.lock().expect("rank outputs poisoned"));
    let mut rtt = f64::NAN;
    let mut reports = Vec::new();
    for (r, out) in outs.iter_mut().enumerate() {
        match out.take() {
            None => s
                .violations
                .push(format!("size {size}: rank {r} never finished")),
            Some(mut o) => {
                if r == 0 {
                    rtt = o.rtt;
                }
                s.attempted += o.attempted;
                s.failed += o.bad.len() as u64;
                s.violations.append(&mut o.bad);
                reports.push(o.report);
                s.rank_recs.push((o.rec, ran.run_span));
            }
        }
    }
    add_rank_counters(s, &reports);
    if let Some(t) = &tracer {
        let vt = s.vt_ns - vt0;
        audit_and_stitch(s, rec, t, vt);
    }
    rtt
}
