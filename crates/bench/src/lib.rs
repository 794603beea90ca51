//! # bench — experiment harness regenerating every table and figure
//!
//! The `repro` binary drives full parameter sweeps and prints the same
//! rows/series the paper reports (see EXPERIMENTS.md for paper-vs-measured
//! records). Criterion benches under `benches/` measure harness hot paths
//! and provide per-figure regression anchors.

use apps::{
    commonly_dcfa, commonly_offload, mpi_pingpong_blocking, mpi_pingpong_nonblocking,
    rdma_direction, stencil_dcfa, stencil_intel_phi, stencil_offload, Direction, MpiRuntime,
    StencilParams,
};
use dcfa_mpi::MpiConfig;
use fabric::ClusterConfig;
use serde::Serialize;

pub mod json;
pub mod report;
pub mod stitch;

pub use report::{compare_reports, compare_reports_full, metrics_report_json, METRICS_SCHEMA};

/// Message-size sweep used by the bandwidth/RTT figures (4 B – 2^max_pow,
/// powers of two).
pub fn size_sweep(max_pow: u32) -> Vec<u64> {
    (2..=max_pow).map(|p| 1u64 << p).collect()
}

/// Iteration counts scaled down as messages grow (keeps sweeps quick while
/// staying deterministic).
pub fn iters_for(size: u64) -> u32 {
    match size {
        0..=4096 => 30,
        4097..=262_144 => 12,
        _ => 6,
    }
}

/// A labelled series of (size, value) points.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    pub label: String,
    pub points: Vec<(u64, f64)>,
}

/// Fig. 5: RDMA-write bandwidth by direction.
pub fn fig5(ccfg: &ClusterConfig, max_pow: u32) -> Vec<Series> {
    Direction::ALL
        .iter()
        .map(|&dir| Series {
            label: dir.label().to_string(),
            points: size_sweep(max_pow)
                .into_iter()
                .map(|s| (s, rdma_direction(ccfg, dir, s, iters_for(s)).bw_gbs))
                .collect(),
        })
        .collect()
}

/// Figs. 7 and 8: non-blocking RTT (us) and bandwidth (GB/s) for DCFA-MPI
/// with/without the offloading send buffer vs. host MPI.
pub fn fig7_fig8(ccfg: &ClusterConfig, max_pow: u32) -> (Vec<Series>, Vec<Series>) {
    let runtimes = [
        (
            "DCFA-MPI (offload send buffer)",
            MpiRuntime::Dcfa(MpiConfig::dcfa()),
        ),
        (
            "DCFA-MPI (no offload)",
            MpiRuntime::Dcfa(MpiConfig::dcfa_no_offload()),
        ),
        ("host MPI (YAMPII)", MpiRuntime::Dcfa(MpiConfig::host())),
    ];
    let mut rtt = Vec::new();
    let mut bw = Vec::new();
    for (label, rt) in runtimes {
        let mut rtt_pts = Vec::new();
        let mut bw_pts = Vec::new();
        for s in size_sweep(max_pow) {
            let r = mpi_pingpong_nonblocking(ccfg, &rt, s, iters_for(s));
            rtt_pts.push((s, r.rtt_us));
            bw_pts.push((s, r.bw_gbs));
        }
        rtt.push(Series {
            label: label.to_string(),
            points: rtt_pts,
        });
        bw.push(Series {
            label: label.to_string(),
            points: bw_pts,
        });
    }
    (rtt, bw)
}

/// Fig. 9: blocking-ping-pong bandwidth, DCFA-MPI vs Intel-MPI-on-Phi.
pub fn fig9(ccfg: &ClusterConfig, max_pow: u32) -> Vec<Series> {
    let runtimes = [
        ("DCFA-MPI", MpiRuntime::Dcfa(MpiConfig::dcfa())),
        ("Intel MPI on Xeon Phi", MpiRuntime::IntelPhi),
    ];
    runtimes
        .iter()
        .map(|(label, rt)| Series {
            label: label.to_string(),
            points: size_sweep(max_pow)
                .into_iter()
                .map(|s| (s, mpi_pingpong_blocking(ccfg, rt, s, iters_for(s)).bw_gbs))
                .collect(),
        })
        .collect()
}

/// Fig. 9 inset: the 4-byte blocking round trips the paper quotes
/// (15 us vs 28 us). Returns `(dcfa_us, intel_us)`.
pub fn fig9_small_rtt(ccfg: &ClusterConfig) -> (f64, f64) {
    let d = mpi_pingpong_blocking(ccfg, &MpiRuntime::Dcfa(MpiConfig::dcfa()), 4, 30);
    let i = mpi_pingpong_blocking(ccfg, &MpiRuntime::IntelPhi, 4, 30);
    (d.rtt_us, i.rtt_us)
}

/// Fig. 10: communication-only app, per-iteration time for DCFA-MPI vs
/// Xeon+offload.
pub fn fig10(ccfg: &ClusterConfig, max_pow: u32) -> Vec<Series> {
    let sizes = size_sweep(max_pow);
    let dcfa = Series {
        label: "DCFA-MPI".into(),
        points: sizes
            .iter()
            .map(|&s| {
                (
                    s,
                    commonly_dcfa(ccfg, MpiConfig::dcfa(), s, iters_for(s)).iter_us,
                )
            })
            .collect(),
    };
    let off = Series {
        label: "Intel MPI on Xeon + offload".into(),
        points: sizes
            .iter()
            .map(|&s| (s, commonly_offload(ccfg, s, iters_for(s)).iter_us))
            .collect(),
    };
    vec![dcfa, off]
}

/// One Fig. 11/12 grid cell.
#[derive(Debug, Clone, Serialize)]
pub struct StencilCell {
    pub runtime: &'static str,
    pub procs: usize,
    pub threads: u32,
    pub iter_us: f64,
    pub speedup_vs_serial: f64,
}

/// Figs. 11 and 12: the stencil grid over (runtime, procs, threads),
/// with speed-ups normalized to the 1-proc/1-thread serial run.
pub fn fig11_fig12(
    ccfg: &ClusterConfig,
    n: usize,
    iters: u32,
    procs_list: &[usize],
    threads_list: &[u32],
) -> (f64, Vec<StencilCell>) {
    let serial = stencil_dcfa(
        ccfg,
        MpiConfig::dcfa(),
        StencilParams {
            n,
            iters,
            procs: 1,
            threads: 1,
        },
    );
    let mut cells = Vec::new();
    for &procs in procs_list {
        for &threads in threads_list {
            let p = StencilParams {
                n,
                iters,
                procs,
                threads,
            };
            for (runtime, r) in [
                ("DCFA-MPI", stencil_dcfa(ccfg, MpiConfig::dcfa(), p)),
                ("Intel MPI on Xeon Phi", stencil_intel_phi(ccfg, p)),
                ("Intel MPI on Xeon + offload", stencil_offload(ccfg, p)),
            ] {
                cells.push(StencilCell {
                    runtime,
                    procs,
                    threads,
                    iter_us: r.iter_us,
                    speedup_vs_serial: serial.iter_us / r.iter_us,
                });
            }
        }
    }
    (serial.iter_us, cells)
}

// ---- ablations (design choices DESIGN.md §6 calls out) ----------------------

/// Offloading-send-buffer threshold sweep at a fixed message size: the
/// paper tuned the activation point and found 8 KiB best in its
/// environment. Returns `(threshold, rtt_us)` — `u64::MAX` means "never
/// offload".
pub fn ablation_offload_threshold(ccfg: &ClusterConfig, msg: u64) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for thr in [1u64 << 10, 4 << 10, 8 << 10, 32 << 10, 128 << 10, u64::MAX] {
        let cfg = if thr == u64::MAX {
            MpiConfig::dcfa_no_offload()
        } else {
            MpiConfig {
                offload_threshold: Some(thr),
                ..MpiConfig::dcfa()
            }
        };
        let r = mpi_pingpong_nonblocking(ccfg, &MpiRuntime::Dcfa(cfg), msg, 8);
        out.push((thr, r.rtt_us));
    }
    out
}

/// MR-cache ablation: ping-pong a large (rendezvous) message with the
/// buffer cache pool on vs. off. Returns `(with_us, without_us)`.
///
/// Beyond timing, this asserts the cache actually behaved as configured:
/// with the pool on, repeated sends from the same buffer must hit; with
/// `mr_cache_capacity = 0` there must be no hits and no region may stay
/// resident after the run (the leak this layer's lease model fixed).
pub fn ablation_mr_cache(ccfg: &ClusterConfig, msg: u64) -> (f64, f64) {
    use dcfa_mpi::{Communicator, Src, TagSel};
    use std::sync::Arc;

    fn run(ccfg: &ClusterConfig, msg: u64, cached: bool) -> f64 {
        let cfg = if cached {
            MpiConfig::dcfa_no_offload()
        } else {
            MpiConfig {
                mr_cache_capacity: 0,
                ..MpiConfig::dcfa_no_offload()
            }
        };
        let iters = 8u32;
        let mut sim = simcore::Simulation::new();
        let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
        let ib = verbs::IbFabric::new(cluster.clone());
        let scif = scif::ScifFabric::new(cluster);
        let out = Arc::new(parking_lot::Mutex::new(0.0f64));
        let out2 = out.clone();
        dcfa_mpi::launch(
            &sim,
            &ib,
            &scif,
            cfg,
            2,
            dcfa_mpi::LaunchOpts::default(),
            move |ctx, comm| {
                let buf = comm.alloc(msg).unwrap();
                let t0 = ctx.now();
                for _ in 0..iters {
                    if comm.rank() == 0 {
                        comm.send(ctx, &buf, 1, 1).unwrap();
                        comm.recv(ctx, &buf, Src::Rank(1), TagSel::Tag(1)).unwrap();
                    } else {
                        comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                        comm.send(ctx, &buf, 0, 1).unwrap();
                    }
                }
                if comm.rank() == 0 {
                    *out2.lock() = (ctx.now() - t0).as_micros_f64() / f64::from(iters);
                }
                let (hits, misses) = comm.mr_cache_stats();
                if cached {
                    assert!(
                        hits > 0,
                        "cache on: repeated same-buffer sends must hit (hits={hits})"
                    );
                } else {
                    assert_eq!(hits, 0, "cache off: no lookups may hit");
                    assert!(misses > 0, "cache off: every acquire is a miss");
                    assert_eq!(
                        comm.mr_cache_len(),
                        0,
                        "cache off: no region may stay resident (leak)"
                    );
                }
                assert_eq!(comm.mr_pinned_len(), 0, "no lease may outlive its transfer");
            },
        );
        sim.run_expect();
        let v = *out.lock();
        v
    }

    (run(ccfg, msg, true), run(ccfg, msg, false))
}

/// Eager/rendezvous switch-point sweep at a fixed message size.
pub fn ablation_eager_threshold(ccfg: &ClusterConfig, msg: u64) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for thr in [1u64 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10] {
        let cfg = MpiConfig {
            eager_threshold: thr,
            ring_slot_payload: thr.max(16 << 10),
            ..MpiConfig::dcfa()
        };
        let r = mpi_pingpong_nonblocking(ccfg, &MpiRuntime::Dcfa(cfg), msg, 8);
        out.push((thr, r.rtt_us));
    }
    out
}

/// Rendezvous-flavour timing study: skew the receiver early (receiver-
/// first RTR path) vs. the sender early (sender-first RTS path) and
/// report per-message time for each. Returns `(recv_first_us,
/// send_first_us)`.
pub fn ablation_rndv_skew(ccfg: &ClusterConfig, msg: u64) -> (f64, f64) {
    use dcfa_mpi::{Communicator, Src, TagSel};
    use std::sync::Arc;

    fn run(ccfg: &ClusterConfig, msg: u64, recv_first: bool) -> f64 {
        let mut sim = simcore::Simulation::new();
        let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
        let ib = verbs::IbFabric::new(cluster.clone());
        let scif = scif::ScifFabric::new(cluster);
        let out = Arc::new(parking_lot::Mutex::new(0.0f64));
        let out2 = out.clone();
        dcfa_mpi::launch(
            &sim,
            &ib,
            &scif,
            MpiConfig::dcfa_no_offload(),
            2,
            dcfa_mpi::LaunchOpts::default(),
            move |ctx, comm| {
                let buf = comm.alloc(msg).unwrap();
                let skew = simcore::SimDuration::from_micros(200);
                for _ in 0..6 {
                    if comm.rank() == 0 {
                        if recv_first {
                            ctx.sleep(skew);
                        }
                        let t0 = ctx.now();
                        comm.send(ctx, &buf, 1, 1).unwrap();
                        *out2.lock() += (ctx.now() - t0).as_micros_f64() / 6.0;
                    } else {
                        if !recv_first {
                            ctx.sleep(skew);
                        }
                        comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                    }
                }
            },
        );
        sim.run_expect();
        let v = *out.lock();
        v
    }
    (run(ccfg, msg, true), run(ccfg, msg, false))
}

/// Host-staged-collective ablation (the paper's §VI future work,
/// implemented in `dcfa_mpi::hostcoll`): plain vs host-staged broadcast
/// across 8 ranks. Returns `(plain_us, staged_us)` for `msg` bytes.
pub fn ablation_host_staged_bcast(ccfg: &ClusterConfig, msg: u64) -> (f64, f64) {
    use dcfa_mpi::{collectives, hostcoll};
    use std::sync::Arc;

    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    let out = Arc::new(parking_lot::Mutex::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    dcfa_mpi::launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        8,
        dcfa_mpi::LaunchOpts::default(),
        move |ctx, comm| {
            use dcfa_mpi::Communicator;
            let buf = comm.alloc(msg).unwrap();
            collectives::barrier(comm, ctx).unwrap();
            let t0 = ctx.now();
            collectives::bcast(comm, ctx, &buf, 0).unwrap();
            collectives::barrier(comm, ctx).unwrap();
            let plain = (ctx.now() - t0).as_micros_f64();
            let t1 = ctx.now();
            hostcoll::bcast_host_staged(comm, ctx, &buf, 0).unwrap();
            collectives::barrier(comm, ctx).unwrap();
            let staged = (ctx.now() - t1).as_micros_f64();
            if comm.rank() == 0 {
                *out2.lock() = (plain, staged);
            }
        },
    );
    sim.run_expect();
    let v = *out.lock();
    v
}

// ---- scenarios: one runner behind every soak and report --------------------

/// The rank program a [`Scenario`] runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The 4-rank mixed-protocol profile behind `repro --stats`, `--trace`
    /// and `--metrics-json`: blocking eager `sendrecv` ring traffic,
    /// sender- and receiver-first rendezvous, and an `MPI_ANY_SOURCE`
    /// fan-in — every protocol path the trace layer instruments.
    Profile,
    /// The same three phases as nonblocking operations waited one at a
    /// time, so each injected link or daemon fault surfaces on exactly
    /// one tallied operation; every payload is pattern-stamped and
    /// verified at the receiver.
    Mixed,
    /// Salted, content-checked halos with the ring neighbors at offsets
    /// 1 and 2. With kills armed the rounds are ULFM-tolerant and run
    /// behind a parked receive, then every survivor revokes, shrinks and
    /// runs a verified exchange on the shrunk world.
    Halo,
}

/// One audited run of the simulated cluster: the rank count, the workload
/// body, the receive path, and the link faults, daemon faults and rank
/// kills armed on it. [`run`] derives everything else (cluster size,
/// heartbeats and leases, failure detection, trace-ring capacity) from
/// these. The constructors validate, so every `Scenario` is runnable.
#[derive(Clone)]
pub struct Scenario {
    ranks: usize,
    workload: Workload,
    srq: bool,
    link_faults: Vec<fabric::LinkFault>,
    daemon_faults: Vec<dcfa::DaemonFault>,
    kills: Vec<dcfa_mpi::KillSpec>,
}

/// Upper bound on `after_ops` a kill scenario supports: the park receive
/// plus 8 halo rounds of 4 neighbors x (isend + irecv). Kills at or below
/// this are guaranteed to fire before the killed rank reaches the shrink
/// agreement, so the agreement commits exactly once per survivor at the
/// full death epoch.
pub const KILL_SOAK_MAX_AFTER_OPS: u64 = 65;

/// Fewest ranks a kill scenario runs on.
const KILL_MIN_RANKS: usize = 8;

impl Scenario {
    /// The traced 4-rank mixed-protocol profile.
    pub fn profile() -> Self {
        Scenario {
            ranks: 4,
            workload: Workload::Profile,
            srq: false,
            link_faults: Vec::new(),
            daemon_faults: Vec::new(),
            kills: Vec::new(),
        }
    }

    /// The fault-tolerant 4-rank mixed run with link faults armed on the
    /// fabric and control-plane faults armed on the delegation daemons;
    /// `srq` moves it onto the shared-receive-queue pool.
    pub fn mixed(
        srq: bool,
        link_faults: Vec<fabric::LinkFault>,
        daemon_faults: Vec<dcfa::DaemonFault>,
    ) -> Self {
        Scenario {
            srq,
            link_faults,
            daemon_faults,
            workload: Workload::Mixed,
            ..Self::profile()
        }
    }

    /// The ring-halo soak at `ranks` ranks, one per node. A non-empty
    /// `kills` schedule makes it a rank-death soak; it must leave at
    /// least 4 survivors of at least 8 ranks, kill each rank at most
    /// once, and fire every kill within `1..=`[`KILL_SOAK_MAX_AFTER_OPS`].
    pub fn halo(
        ranks: usize,
        srq: bool,
        link_faults: Vec<fabric::LinkFault>,
        kills: Vec<dcfa_mpi::KillSpec>,
    ) -> Result<Self, String> {
        if !kills.is_empty() {
            check_kill_ranks(ranks)?;
        }
        for (i, k) in kills.iter().enumerate() {
            let at = format!("{}:{}", k.after_ops, k.rank);
            if k.rank >= ranks {
                return Err(format!(
                    "{at}: rank {} out of range for {ranks} ranks",
                    k.rank
                ));
            }
            if !(1..=KILL_SOAK_MAX_AFTER_OPS).contains(&k.after_ops) {
                return Err(format!(
                    "{at}: after_ops must be in 1..={KILL_SOAK_MAX_AFTER_OPS} \
                     (the soak's phase-1 window)"
                ));
            }
            if kills[..i].iter().any(|o| o.rank == k.rank) {
                return Err(format!("{at}: rank {} killed twice", k.rank));
            }
        }
        if kills.len() > ranks.saturating_sub(4) {
            return Err(format!(
                "{} kills leave fewer than 4 survivors of {ranks} ranks",
                kills.len()
            ));
        }
        Ok(Scenario {
            ranks,
            workload: Workload::Halo,
            srq,
            link_faults,
            daemon_faults: Vec::new(),
            kills,
        })
    }

    /// A kill scenario with a schedule sampled from `seed`: 2-6 distinct
    /// victims, each killed inside the phase-1 window. Same seed, same
    /// schedule — the chaos fuzzer's reproducibility anchor.
    pub fn chaos(seed: u64, ranks: usize, srq: bool) -> Result<Self, String> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        check_kill_ranks(ranks)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let max_kills = (ranks / 4).clamp(2, 6);
        let n_kills = rng.random_range(2usize..=max_kills);
        let mut victims: Vec<usize> = Vec::new();
        while victims.len() < n_kills {
            let r = rng.random_range(0usize..ranks);
            if !victims.contains(&r) {
                victims.push(r);
            }
        }
        let kills = victims
            .into_iter()
            .map(|rank| dcfa_mpi::KillSpec {
                rank,
                after_ops: rng.random_range(2u64..=KILL_SOAK_MAX_AFTER_OPS),
            })
            .collect();
        Self::halo(ranks, srq, Vec::new(), kills)
    }

    /// The armed kill schedule (empty unless this is a rank-death soak).
    pub fn kills(&self) -> &[dcfa_mpi::KillSpec] {
        &self.kills
    }
}

fn check_kill_ranks(ranks: usize) -> Result<(), String> {
    if ranks < KILL_MIN_RANKS {
        return Err(format!(
            "rank kills need at least {KILL_MIN_RANKS} ranks, got {ranks}"
        ));
    }
    Ok(())
}

/// Operation outcomes of a run, summed over ranks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations (waits) that completed successfully.
    pub ok: u64,
    /// Operations that surfaced a transport error.
    pub failed: u64,
    /// Operations that surfaced `PeerFailed`.
    pub peer_failed: u64,
    /// Operations that surfaced `Revoked`.
    pub revoked: u64,
    /// Delivered payloads whose contents did not match the sender's.
    pub corrupt: u64,
}

impl Tally {
    /// Count one failed operation; any error the workloads are not built
    /// to survive aborts the rank.
    fn err(&mut self, e: dcfa_mpi::MpiError) {
        use dcfa_mpi::MpiError;
        match e {
            MpiError::Transport { .. } | MpiError::RemoteTransport { .. } => self.failed += 1,
            MpiError::PeerFailed(_) => self.peer_failed += 1,
            MpiError::Revoked => self.revoked += 1,
            e => panic!("unexpected MPI error: {e:?}"),
        }
    }

    /// Count one waited operation; true if it completed.
    fn wait<T>(&mut self, res: Result<T, dcfa_mpi::MpiError>) -> bool {
        match res {
            Ok(_) => {
                self.ok += 1;
                true
            }
            Err(e) => {
                self.err(e);
                false
            }
        }
    }

    fn add(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.failed += o.failed;
        self.peer_failed += o.peer_failed;
        self.revoked += o.revoked;
        self.corrupt += o.corrupt;
    }
}

/// Per-rank outcome of a run (killed ranks have none).
#[derive(Debug, Clone, Copy)]
pub struct RankOut {
    /// Consolidated counter snapshot.
    pub report: dcfa_mpi::StatsReport,
    /// Size of the world the rank finished on (the shrunk one after kills).
    pub sub_size: usize,
    /// MR-cache regions still pinned by leases at the end (leak gate).
    pub mr_pinned: usize,
    /// Request-table slots still occupied at the end (stranded-request
    /// gate).
    pub reqs_live: usize,
    /// Post-shrink verified exchanges completed (kill scenarios only).
    pub post_ok: u64,
}

/// Aggregated failure-plane counters of a run with rank kills armed:
/// ground-truth kills, detections and their latency, and the recovery
/// protocol's progress (revocations, shrink commits, reclaimed objects).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FailureSummary {
    /// Ranks fail-stop killed (ground truth).
    pub kills: u64,
    /// `Dead` promotions on the health board (each corpse once, however
    /// many survivors later reap it locally).
    pub detections: u64,
    /// p99 of the promotion-minus-kill latencies, in virtual ns.
    pub detection_latency_p99_ns: u64,
    /// Revocation floods (`Comm::revoke` epoch bumps).
    pub revokes: u64,
    /// Distinct shrink agreements committed on the board (a clean run
    /// commits exactly one, at the final death epoch; the per-rank
    /// commit count lives in the audit report).
    pub shrinks: u64,
    /// Protocol objects reclaimed from dead peers across all survivors.
    pub reclaimed: u64,
}

/// Everything observable about one [`run`]: operation outcomes, per-rank
/// counters, daemon and fabric counters, the audited protocol trace and
/// latency histograms. Gated by [`Outcome::healthy`], digested by
/// [`Outcome::fingerprint`], serialized by [`metrics_report_json`].
pub struct Outcome {
    scenario: Scenario,
    /// The MPI configuration the ranks ran under (report fingerprint).
    pub cfg: MpiConfig,
    /// Operation outcomes summed over ranks.
    pub tally: Tally,
    /// Per-rank outcomes, indexed by rank; killed ranks `None`.
    pub outs: Vec<Option<RankOut>>,
    /// Ranks the schedule killed, ascending.
    pub killed: Vec<usize>,
    /// DCFA host-daemon counters (all nodes aggregated).
    pub daemon: Option<dcfa::DcfaCounters>,
    /// Per-node channel utilization.
    pub fabric: Vec<fabric::FabricStats>,
    /// Per rank-hosting node: (node, host bytes in use before, after).
    /// The two must match — a daemon crash or lease reclamation must
    /// never leak a host twin page.
    pub mem_balance: Vec<(usize, u64, u64)>,
    /// The recorded protocol events, in causal order.
    pub events: Vec<dcfa_mpi::TraceEvent>,
    /// Events dropped by the ring (must be 0 for the audit to bind).
    pub dropped: u64,
    /// Protocol-auditor verdict over `events`.
    pub audit: Result<dcfa_mpi::AuditReport, Vec<String>>,
    /// Latency histograms recorded by every rank (see
    /// [`dcfa_mpi::MetricsHub`]); drained by [`metrics_report_json`].
    /// Empty for the halo soak without kills.
    pub metrics: dcfa_mpi::MetricsHub,
    /// Failure-plane counters, present only when kills were armed.
    /// Serialized as the additive `failures` section of the metrics report.
    pub failures: Option<FailureSummary>,
    /// Virtual time the whole simulation took, in nanoseconds.
    pub elapsed_ns: u64,
    /// Wall-clock time the simulation took to execute, in nanoseconds.
    /// Machine-dependent: gated as a floor, never as symmetric drift.
    pub wall_ns: u64,
    /// Scheduler events the run processed.
    pub sim_events: u64,
}

/// Gate: lazily established QP pairs stay within this many per rank (4
/// ring neighbors, doubled for boot-order slack) — O(ranks), never the
/// O(ranks^2) full mesh.
const MAX_PAIRS_PER_RANK: u64 = 8;

/// Gate: per-rank communication-buffer bytes (one shared receive pool
/// plus a handful of per-neighbor stage rings) stay under this flat
/// ceiling whatever the rank count.
const MAX_BYTES_PER_RANK: u64 = 16 << 20;

impl Outcome {
    /// Ranks launched.
    pub fn ranks(&self) -> usize {
        self.scenario.ranks
    }

    /// Ranks that were not killed: the size every survivor's shrunk
    /// world must have.
    pub fn survivors(&self) -> usize {
        self.ranks() - self.killed.len()
    }

    /// Counter snapshots of every rank that finished, in rank order.
    pub fn reports(&self) -> impl Iterator<Item = &dcfa_mpi::StatsReport> {
        self.outs.iter().flatten().map(|o| &o.report)
    }

    /// Completed MPI-level send operations across all ranks (eager +
    /// rendezvous), the numerator of `ops_per_sec`.
    pub fn mpi_ops(&self) -> u64 {
        self.reports()
            .map(|r| r.comm.eager_sends + r.comm.rndv_sends)
            .sum()
    }

    /// Lazily established QP pairs, summed over ranks.
    pub fn established_pairs(&self) -> u64 {
        self.reports().map(|r| r.comm.pairs_established).sum()
    }

    /// Largest per-rank established-pair count.
    pub fn max_pairs_per_rank(&self) -> u64 {
        self.reports()
            .map(|r| r.comm.pairs_established)
            .max()
            .unwrap_or(0)
    }

    /// Largest per-rank communication-buffer footprint (receive pool +
    /// stage rings), in bytes.
    pub fn bytes_per_rank(&self) -> u64 {
        self.reports()
            .map(|r| r.comm.comm_buffer_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Highest SRQ pool occupancy any rank saw.
    pub fn srq_highwater(&self) -> u64 {
        self.reports()
            .map(|r| r.comm.srq_highwater)
            .max()
            .unwrap_or(0)
    }

    /// Gate the run: every rank that was not killed finished (after
    /// kills: on the same shrunk world, with a verified post-shrink
    /// exchange) and leaked no request slots or MR leases; no payload
    /// was corrupted and no host page leaked; the auditor is clean over
    /// an unsaturated trace ring; connections and buffer memory stay
    /// within the scale ceilings; the SRQ pool was used when on. Halo
    /// runs must complete every operation the schedule did not kill, and
    /// kill runs must record and detect exactly the scheduled deaths.
    /// Returns the violations (empty = healthy).
    pub fn healthy(&self) -> Result<(), Vec<String>> {
        let mut v = Vec::new();
        let kills_armed = !self.killed.is_empty();
        for (r, out) in self.outs.iter().enumerate() {
            let killed = self.killed.contains(&r);
            match out {
                None if !killed => v.push(format!("rank {r}: survivor hung (never finished)")),
                Some(_) if killed => v.push(format!("rank {r}: killed rank finished anyway")),
                Some(o) => {
                    if kills_armed && o.sub_size != self.survivors() {
                        v.push(format!(
                            "rank {r}: shrunk to {} ranks, expected {}",
                            o.sub_size,
                            self.survivors()
                        ));
                    }
                    if kills_armed && o.post_ok == 0 {
                        v.push(format!("rank {r}: no post-shrink exchange completed"));
                    }
                    if o.mr_pinned != 0 {
                        v.push(format!("rank {r}: {} MR leases still pinned", o.mr_pinned));
                    }
                    if o.reqs_live != 0 {
                        v.push(format!("rank {r}: {} request slots stranded", o.reqs_live));
                    }
                }
                None => {}
            }
        }
        if self.tally.corrupt > 0 {
            v.push(format!("{} corrupt payloads", self.tally.corrupt));
        }
        if self.scenario.workload == Workload::Halo && self.tally.failed > 0 {
            v.push(format!(
                "{} operations failed with a transport error",
                self.tally.failed
            ));
        }
        for &(node, before, after) in &self.mem_balance {
            if before != after {
                v.push(format!(
                    "node {node}: host pages leaked ({before} B -> {after} B)"
                ));
            }
        }
        if self.dropped > 0 {
            v.push(format!(
                "trace ring dropped {} events (audit unbound)",
                self.dropped
            ));
        }
        if let Err(errors) = &self.audit {
            for e in errors.iter().take(10) {
                v.push(format!("auditor: {e}"));
            }
        }
        let max_pairs = self.ranks() as u64 * MAX_PAIRS_PER_RANK;
        if self.established_pairs() > max_pairs {
            v.push(format!(
                "{} pairs established, gate is {max_pairs} (O(ranks) neighbor set)",
                self.established_pairs()
            ));
        }
        if self.bytes_per_rank() > MAX_BYTES_PER_RANK {
            v.push(format!(
                "{} comm buffer bytes per rank, ceiling is {MAX_BYTES_PER_RANK}",
                self.bytes_per_rank()
            ));
        }
        if self.scenario.srq && self.srq_highwater() == 0 {
            v.push("SRQ mode on but the pool was never used".into());
        }
        if let Some(f) = &self.failures {
            if f.kills != self.killed.len() as u64 {
                v.push(format!(
                    "{} kills recorded, schedule had {}",
                    f.kills,
                    self.killed.len()
                ));
            }
            if f.detections != self.killed.len() as u64 {
                v.push(format!(
                    "{} corpses promoted dead, expected {}",
                    f.detections,
                    self.killed.len()
                ));
            }
        }
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }

    /// Deterministic digest of everything observable about the run
    /// (FNV-1a over outcome words and per-rank counters). Two runs of
    /// the same scenario must produce identical fingerprints.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        let t = &self.tally;
        mix(self.ranks() as u64);
        for &k in &self.killed {
            mix(k as u64);
        }
        mix(t.ok);
        // One word for failed operations of either kind: transport errors
        // only occur without kills and `PeerFailed` only with them.
        mix(t.failed + t.peer_failed);
        mix(t.revoked);
        mix(t.corrupt);
        mix(self.elapsed_ns);
        mix(self.sim_events);
        mix(self.events.len() as u64);
        for out in self.outs.iter() {
            match out {
                None => mix(u64::MAX),
                Some(o) => {
                    let c = &o.report.comm;
                    mix(o.sub_size as u64);
                    mix(o.post_ok);
                    mix(c.eager_sends);
                    mix(c.rndv_sends);
                    mix(c.bytes_sent);
                    mix(c.bytes_received);
                    mix(c.peer_deaths_detected);
                    mix(c.revokes_observed);
                    mix(c.reqs_revoked);
                    mix(c.dead_reclaimed);
                    mix(c.agreement_restarts);
                }
            }
        }
        if let Some(f) = &self.failures {
            mix(f.kills);
            mix(f.detections);
            mix(f.detection_latency_p99_ns);
            mix(f.revokes);
            mix(f.shrinks);
            mix(f.reclaimed);
        }
        h
    }
}

/// Audit an event stream and stamp in the trace ring's drop counter, so
/// every report carries the loss diagnosis next to the invariant verdict.
fn audited(
    events: &[dcfa_mpi::TraceEvent],
    dropped: u64,
) -> Result<dcfa_mpi::AuditReport, Vec<String>> {
    dcfa_mpi::audit(events).map(|mut a| {
        a.events_dropped = dropped;
        a
    })
}

/// p99 of a sample set (0 for an empty one): nearest-rank on the sorted
/// samples, the same convention the latency histograms use.
fn p99(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[(s.len() - 1) * 99 / 100]
}

/// Run a scenario to completion with tracing on, and collect everything
/// its gates and reports read. The halo runs on a
/// cluster of one node per rank, the 4-rank workloads on the paper
/// cluster. Daemon faults switch on heartbeats and a lease reaper; kills
/// switch on failure detection through a shared health board. Panics if
/// the simulation itself fails (deadlock, rank panic, livelock backstop).
pub fn run(sc: &Scenario) -> Outcome {
    use dcfa_mpi::Communicator;
    use std::sync::Arc;

    let ranks = sc.ranks;
    let mut sim = simcore::Simulation::new();
    let ccfg = match sc.workload {
        Workload::Halo => ClusterConfig::with_nodes(ranks.max(2)),
        Workload::Profile | Workload::Mixed => ClusterConfig::paper(),
    };
    let cluster = fabric::Cluster::new(sim.scheduler(), ccfg);
    for f in &sc.link_faults {
        cluster.inject_link_fault(*f);
    }
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster.clone());
    let daemon_chaos = !sc.daemon_faults.is_empty();
    let kills_armed = !sc.kills.is_empty();
    let cfg = MpiConfig {
        srq_depth: sc.srq.then_some(256),
        heartbeat_interval: daemon_chaos.then(|| simcore::SimDuration::from_micros(200)),
        peer_ttl: kills_armed.then(|| simcore::SimDuration::from_micros(50)),
        ..MpiConfig::dcfa()
    };
    // `trace_capacity` is the configured floor; the ring scales with the
    // rank count so every lifecycle stream survives whole (a dropped
    // event would unbind the auditor's verdict).
    let trace_cap = (ranks * 4096).next_power_of_two().max(cfg.trace_capacity);
    let tracer = dcfa_mpi::TraceBuf::new(trace_cap);
    let metrics = dcfa_mpi::MetricsHub::new();
    let board = kills_armed.then(|| fabric::HealthBoard::new(ranks));
    let daemon = if daemon_chaos {
        dcfa::DaemonConfig {
            faults: sc.daemon_faults.clone(),
            // Exercise the reaper alongside the chaos: silent ranks are
            // kept alive by the heartbeat sidecar.
            lease_ttl: Some(simcore::SimDuration::from_millis(2)),
            reaper_period: simcore::SimDuration::from_micros(500),
            ..Default::default()
        }
    } else {
        Default::default()
    };
    // Latency metrics feed the metrics report of the profile, the mixed
    // runs and the kill soak; the plain halo soak has no report and skips
    // the per-operation span bookkeeping at scale.
    let profiled = sc.workload != Workload::Halo || kills_armed;
    let opts = dcfa_mpi::LaunchOpts {
        tracer: Some(tracer.clone()),
        metrics: profiled.then(|| metrics.clone()),
        daemon,
        kills: sc.kills.clone(),
        health: board.clone(),
        ..Default::default()
    };
    let host = |n: usize| fabric::MemRef {
        node: fabric::NodeId(n),
        domain: fabric::Domain::Host,
    };
    let mem_before: Vec<u64> = (0..ranks).map(|n| cluster.mem_used(host(n))).collect();
    let outs = Arc::new(parking_lot::Mutex::new(vec![None; ranks]));
    let tally = Arc::new(parking_lot::Mutex::new(Tally::default()));
    let (outs2, tally2, workload) = (outs.clone(), tally.clone(), sc.workload);
    let daemon_stats = dcfa_mpi::launch(
        &sim,
        &ib,
        &scif,
        cfg.clone(),
        ranks,
        opts,
        move |ctx, comm| {
            let mut t = Tally::default();
            let (sub_size, post_ok) = match workload {
                Workload::Profile => {
                    profile_body(ctx, comm);
                    (comm.size(), 0)
                }
                Workload::Mixed => {
                    mixed_body(ctx, comm, &mut t);
                    (comm.size(), 0)
                }
                Workload::Halo => halo_body(ctx, comm, &mut t, kills_armed),
            };
            tally2.lock().add(&t);
            outs2.lock()[comm.rank()] = Some(RankOut {
                report: comm.dump(),
                sub_size,
                mr_pinned: comm.mr_pinned_len(),
                reqs_live: comm.requests_live(),
                post_ok,
            });
        },
    );
    // Livelock backstop: a recovery bug that strands one rank leaves the
    // heartbeat sidecars ticking forever, which would hang the run (and
    // CI) instead of failing it. The bound is far above any legitimate
    // run (the 256-rank halo processes ~144k events), so hitting it means
    // a real wedge — fail fast with the board state.
    sim.set_event_limit(50_000_000);
    let wall_start = std::time::Instant::now();
    let run_report = match sim.run() {
        Ok(r) => r,
        Err(e) => {
            if let Some(board) = &board {
                eprintln!("health board at failure: {board:?}");
                for r in 0..ranks {
                    if board.is_killed(r) || board.is_dead(r) {
                        eprintln!(
                            "  rank {r}: killed={} detected-dead={}",
                            board.is_killed(r),
                            board.is_dead(r)
                        );
                    }
                }
            }
            panic!("simulation failed: {e}");
        }
    };
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    let events = tracer.snapshot();
    let outs: Vec<Option<RankOut>> = outs.lock().clone();
    let mut killed: Vec<usize> = sc.kills.iter().map(|k| k.rank).collect();
    killed.sort_unstable();
    let failures = board.map(|b| FailureSummary {
        kills: b.kills(),
        detections: b.detections(),
        detection_latency_p99_ns: p99(&b.detection_latency_samples()),
        revokes: b.revoke_epoch(),
        shrinks: b.shrink_count(),
        reclaimed: outs
            .iter()
            .flatten()
            .map(|o| o.report.comm.dead_reclaimed)
            .sum(),
    });
    let tally = *tally.lock();
    Outcome {
        scenario: sc.clone(),
        cfg,
        tally,
        outs,
        killed,
        daemon: daemon_stats.map(|d| d.snapshot()),
        fabric: (0..cluster.num_nodes())
            .map(|n| cluster.fabric_stats(fabric::NodeId(n)))
            .collect(),
        mem_balance: (0..ranks)
            .map(|n| (n, mem_before[n], cluster.mem_used(host(n))))
            .collect(),
        dropped: tracer.dropped(),
        audit: audited(&events, tracer.dropped()),
        events,
        metrics,
        failures,
        elapsed_ns: run_report.final_time.0,
        wall_ns,
        sim_events: run_report.events_processed,
    }
}

/// [`Workload::Profile`]. The rendezvous pairs are skewed so the receiver
/// arrives late one round (sender-first RTS path) and the sender the
/// next (receiver-first RTR path: the iprobe pumps progress so the
/// arrived RTR is stashed before isend decides). 64 KiB is past the
/// eager and offload thresholds, so the sends also exercise the
/// offloading send buffer.
fn profile_body(ctx: &mut simcore::Ctx, comm: &mut dcfa_mpi::Comm) {
    use dcfa_mpi::{Communicator, Src, TagSel};

    let (r, n) = (comm.rank(), comm.size());
    let next = (r + 1) % n;
    let prev = (r + n - 1) % n;
    let skew = simcore::SimDuration::from_micros(150);
    let stx = comm.alloc(512).unwrap();
    let srx = comm.alloc(512).unwrap();
    let big = comm.alloc(64 << 10).unwrap();
    // Eager ring traffic (and credit-return pressure).
    for _ in 0..8 {
        comm.sendrecv(ctx, &stx, next, &srx, prev, 10).unwrap();
    }
    // Rendezvous between pairs (0<->1, 2<->3), both flavours.
    let peer = r ^ 1;
    for recv_late in [true, false] {
        if r % 2 == 0 {
            if !recv_late {
                ctx.sleep(skew);
                let _ = comm.iprobe(ctx, Src::Rank(peer), TagSel::Tag(999));
            }
            comm.send(ctx, &big, peer, 20).unwrap();
        } else {
            if recv_late {
                ctx.sleep(skew);
            }
            comm.recv(ctx, &big, Src::Rank(peer), TagSel::Tag(20))
                .unwrap();
        }
    }
    // ANY_SOURCE fan-in to rank 0 (sequence-locking path).
    if r == 0 {
        for _ in 1..n {
            comm.recv(ctx, &srx, Src::Any, TagSel::Any).unwrap();
        }
    } else {
        comm.send(ctx, &stx, 0, 30).unwrap();
    }
}

/// [`Workload::Mixed`]: fault-tolerant, so transient faults heal
/// invisibly, fatal faults fail only the owning request, and daemon
/// crashes, dropped and delayed replies are retried underneath.
fn mixed_body(ctx: &mut simcore::Ctx, comm: &mut dcfa_mpi::Comm, t: &mut Tally) {
    use dcfa_mpi::{Communicator, Src, TagSel};

    let (r, n) = (comm.rank(), comm.size());
    let next = (r + 1) % n;
    let prev = (r + n - 1) % n;
    let skew = simcore::SimDuration::from_micros(150);
    let stx = comm.alloc(512).unwrap();
    let srx = comm.alloc(512).unwrap();
    let big = comm.alloc(64 << 10).unwrap();
    let pattern = |len: usize, salt: u8| -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    };
    // Eager ring traffic.
    for i in 0..8u8 {
        let rr = comm
            .irecv(ctx, &srx, Src::Rank(prev), TagSel::Tag(10))
            .unwrap();
        comm.write(&stx, 0, &pattern(512, i));
        let sr = comm.isend(ctx, &stx, next, 10).unwrap();
        t.wait(comm.wait(ctx, sr));
        if t.wait(comm.wait(ctx, rr)) && comm.read_vec(&srx) != pattern(512, i) {
            t.corrupt += 1;
        }
    }
    // Rendezvous between pairs (0<->1, 2<->3): the skew forces the
    // sender-first (RTS) path one round and the receiver-first (RTR) path
    // the next. 64 KiB is past the offload threshold, so every send needs
    // a host twin from the daemon — the resource ops daemon faults hit.
    let peer = r ^ 1;
    for (round, recv_late) in [true, false].into_iter().enumerate() {
        let salt = 100 + round as u8;
        if r % 2 == 0 {
            if !recv_late {
                ctx.sleep(skew);
            }
            comm.write(&big, 0, &pattern(64 << 10, salt));
            let sr = comm.isend(ctx, &big, peer, 20).unwrap();
            t.wait(comm.wait(ctx, sr));
        } else {
            if recv_late {
                ctx.sleep(skew);
            }
            let rr = comm
                .irecv(ctx, &big, Src::Rank(peer), TagSel::Tag(20))
                .unwrap();
            if t.wait(comm.wait(ctx, rr)) && comm.read_vec(&big) != pattern(64 << 10, salt) {
                t.corrupt += 1;
            }
        }
    }
    // ANY_SOURCE fan-in to rank 0 (sequence locking under faults).
    if r == 0 {
        for _ in 1..n {
            let rr = comm.irecv(ctx, &srx, Src::Any, TagSel::Any).unwrap();
            t.wait(comm.wait(ctx, rr));
        }
    } else {
        let sr = comm.isend(ctx, &stx, 0, 30).unwrap();
        t.wait(comm.wait(ctx, sr));
    }
}

/// [`Workload::Halo`]. Returns the size of the world the rank finished
/// on and its verified post-shrink exchanges. The neighbor set keeps the
/// touched pairs O(ranks), so with lazy connections only those ever get
/// QPs and, on SRQ, each rank's receive memory is one shared pool.
///
/// With kills armed, every entry and wait tallies its error instead of
/// aborting and the rounds run to completion, so every rank's operation
/// count advances deterministically and every scheduled kill fires in
/// this phase; the recovery tail follows.
fn halo_body(
    ctx: &mut simcore::Ctx,
    comm: &mut dcfa_mpi::Comm,
    t: &mut Tally,
    kills_armed: bool,
) -> (usize, u64) {
    use dcfa_mpi::{Communicator, Src, TagSel};

    const HALO: u64 = 1024;
    const PARK_TAG: u32 = 777;
    const POST_ROUNDS: u32 = 2;
    // Kill runs need 8 rounds to span the `KILL_SOAK_MAX_AFTER_OPS` window.
    let rounds: u32 = if kills_armed { 8 } else { 4 };

    let (me, n) = (comm.rank(), comm.size());
    let salt = |rank: usize, round: u32| (rank as u8).wrapping_mul(37).wrapping_add(round as u8);
    let fill = |s: u8| {
        (0..HALO as usize)
            .map(|i| (i as u8) ^ s)
            .collect::<Vec<u8>>()
    };
    // Ring-halo neighbor set at offsets +/-1 and +/-2 (deduplicated:
    // tiny clusters fold offsets onto the same rank).
    let mut peers: Vec<usize> = Vec::new();
    for off in [1usize, 2, n - 1, n - 2] {
        let p = (me + off) % n;
        if p != me && !peers.contains(&p) {
            peers.push(p);
        }
    }
    let sbufs: Vec<_> = peers.iter().map(|_| comm.alloc(HALO).unwrap()).collect();
    let rbufs: Vec<_> = peers.iter().map(|_| comm.alloc(HALO).unwrap()).collect();
    // Park first (operation #1): drained by the revocation flood (or a
    // source death), so no rank reaches the shrink agreement before the
    // failure is visible somewhere.
    let park = kills_armed.then(|| {
        let pbuf = comm.alloc(64).unwrap();
        let q = comm.irecv(ctx, &pbuf, Src::Rank((me + 1) % n), TagSel::Tag(PARK_TAG));
        (pbuf, q)
    });
    for round in 0..rounds {
        let mut reqs = Vec::with_capacity(peers.len() * 2);
        for (i, &p) in peers.iter().enumerate() {
            comm.write(&sbufs[i], 0, &fill(salt(me, round)));
            let rr = comm.irecv(ctx, &rbufs[i], Src::Rank(p), TagSel::Tag(round));
            let sr = comm.isend(ctx, &sbufs[i], p, round);
            for (is_recv, q) in [(true, rr), (false, sr)] {
                match q {
                    Ok(q) => reqs.push((i, is_recv, q)),
                    Err(e) => t.err(e),
                }
            }
        }
        let mut delivered = vec![false; peers.len()];
        for (i, is_recv, q) in reqs {
            if t.wait(comm.wait(ctx, q)) && is_recv {
                delivered[i] = true;
            }
        }
        for (i, &p) in peers.iter().enumerate() {
            if delivered[i] && comm.read_vec(&rbufs[i]) != fill(salt(p, round)) {
                t.corrupt += 1;
            }
        }
    }
    let Some((pbuf, park)) = park else {
        return (n, 0);
    };
    // Recovery: observers revoke (many ranks revoke concurrently — the
    // flood is idempotent), the park drains with an error, and every
    // survivor agrees on the shrunk world.
    if t.peer_failed + t.revoked > 0 {
        comm.revoke(ctx);
    }
    match park {
        Ok(q) => {
            let res = comm.wait(ctx, q);
            assert!(res.is_err(), "rank {me}: park resolved as {res:?}");
        }
        Err(e) => panic!("rank {me}: park post failed at entry: {e:?}"),
    }
    let sub_size;
    let mut post_ok = 0u64;
    {
        let mut sub = comm.shrink(ctx).expect("survivor must shrink");
        sub_size = sub.size();
        let (sr, sn) = (sub.rank(), sub.size());
        let snext = (sr + 1) % sn;
        let sprev = (sr + sn - 1) % sn;
        // A verified exchange on the renumbered world. All corpses died
        // before the agreement (after_ops window), so the shrunk
        // communicator contains only live ranks and the exchange is
        // infallible.
        for round in 0..POST_ROUNDS {
            let s = 0x40u8 ^ (sr as u8) ^ (round as u8);
            sub.cluster().write(&sbufs[0], 0, &fill(s));
            sub.sendrecv(ctx, &sbufs[0], snext, &rbufs[0], sprev, round)
                .expect("post-shrink exchange failed");
            post_ok += 1;
            let want = 0x40u8 ^ (sprev as u8) ^ (round as u8);
            if sub.cluster().read_vec(&rbufs[0]) != fill(want) {
                t.corrupt += 1;
            }
        }
    }
    for b in sbufs.iter().chain(rbufs.iter()) {
        comm.free(b);
    }
    comm.free(&pbuf);
    (sub_size, post_ok)
}

// ---- chaos fuzzer (`repro --chaos --seed N`) -------------------------------

/// Verdict of one chaos iteration: the replayed fingerprints, the gate
/// violations (empty = survived), and — when the schedule found a
/// failure — the greedily shrunk minimal reproducer.
pub struct ChaosReport {
    /// Fingerprint of the first run.
    pub fingerprint: u64,
    /// Fingerprint of the bit-for-bit replay (must equal `fingerprint`).
    pub replay_fingerprint: u64,
    /// Gate violations of the scenario (determinism included).
    pub violations: Vec<String>,
    /// Minimal reproducing kill schedule (greedy drop-one-kill), when
    /// the scenario violated a gate.
    pub minimal: Option<Vec<dcfa_mpi::KillSpec>>,
    /// Runs this report cost (2 + shrink attempts).
    pub runs: usize,
}

/// Render a kill schedule in `--kill` syntax (`after:rank,...`) so a
/// chaos finding is directly replayable from the CLI.
pub fn kill_spec_string(kills: &[dcfa_mpi::KillSpec]) -> String {
    kills
        .iter()
        .map(|k| format!("{}:{}", k.after_ops, k.rank))
        .collect::<Vec<_>>()
        .join(",")
}

/// One deterministic chaos iteration: run the scenario twice (the replay
/// must fingerprint identically — any divergence is itself a violation),
/// gate the outcome, and on a failure greedily shrink its kill schedule
/// to a minimal reproducer by dropping one kill at a time while the
/// violation persists.
pub fn chaos(sc: &Scenario) -> ChaosReport {
    let first = run(sc);
    let fingerprint = first.fingerprint();
    let replay_fingerprint = run(sc).fingerprint();
    let mut violations = first.healthy().err().unwrap_or_default();
    if fingerprint != replay_fingerprint {
        violations.push(format!(
            "nondeterministic replay: fingerprint {fingerprint:#018x} != {replay_fingerprint:#018x}"
        ));
    }
    let mut runs = 2;
    let mut minimal = None;
    if !violations.is_empty() {
        let mut cur = sc.kills.clone();
        let mut i = 0;
        while cur.len() > 1 && i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            runs += 1;
            // A subset of a valid schedule is valid.
            let shrunk = Scenario {
                kills: cand.clone(),
                ..sc.clone()
            };
            if run(&shrunk).healthy().is_err() {
                cur = cand; // still reproduces without this kill: drop it
            } else {
                i += 1; // this kill is load-bearing: keep it
            }
        }
        minimal = Some(cur);
    }
    ChaosReport {
        fingerprint,
        replay_fingerprint,
        violations,
        minimal,
        runs,
    }
}

/// Write a set of series as CSV: `size,<label1>,<label2>,...`.
pub fn write_series_csv(path: &std::path::Path, series: &[Series]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(f, "size")?;
    for s in series {
        write!(f, ",{}", s.label.replace(',', ";"))?;
    }
    writeln!(f)?;
    if let Some(first) = series.first() {
        for (i, &(size, _)) in first.points.iter().enumerate() {
            write!(f, "{size}")?;
            for s in series {
                write!(f, ",{}", s.points[i].1)?;
            }
            writeln!(f)?;
        }
    }
    f.flush()
}

/// Write the stencil grid as CSV: `runtime,procs,threads,iter_us,speedup`.
pub fn write_stencil_csv(path: &std::path::Path, cells: &[StencilCell]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "runtime,procs,threads,iter_us,speedup_vs_serial")?;
    for c in cells {
        writeln!(
            f,
            "{},{},{},{},{}",
            c.runtime.replace(',', ";"),
            c.procs,
            c.threads,
            c.iter_us,
            c.speedup_vs_serial
        )?;
    }
    f.flush()
}

/// Pretty-print a set of series as an aligned table (sizes as rows).
pub fn print_series(title: &str, unit: &str, series: &[Series]) {
    println!("\n== {title} ==");
    print!("{:>10}", "size");
    for s in series {
        print!("  {:>30}", s.label);
    }
    println!("  [{unit}]");
    if series.is_empty() {
        return;
    }
    for (i, &(size, _)) in series[0].points.iter().enumerate() {
        print!("{size:>10}");
        for s in series {
            print!("  {:>30.3}", s.points[i].1);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_is_powers_of_two() {
        let s = size_sweep(10);
        assert_eq!(s.first(), Some(&4));
        assert_eq!(s.last(), Some(&1024));
        for w in s.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn iters_shrink_with_size() {
        assert!(iters_for(4) > iters_for(64 << 10));
        assert!(iters_for(64 << 10) > iters_for(4 << 20));
        assert!(iters_for(4 << 20) >= 4, "large sizes keep enough samples");
    }

    #[test]
    fn csv_writer_roundtrip() {
        let dir = std::env::temp_dir().join("dcfa-bench-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let series = vec![
            Series {
                label: "a,b".into(),
                points: vec![(4, 1.5), (8, 2.5)],
            },
            Series {
                label: "c".into(),
                points: vec![(4, 3.0), (8, 4.0)],
            },
        ];
        write_series_csv(&path, &series).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("size,a;b,c")); // comma escaped
        assert_eq!(lines.next(), Some("4,1.5,3"));
        assert_eq!(lines.next(), Some("8,2.5,4"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stencil_csv_writer() {
        let dir = std::env::temp_dir().join("dcfa-bench-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.csv");
        let cells = vec![StencilCell {
            runtime: "DCFA-MPI",
            procs: 8,
            threads: 56,
            iter_us: 166.1,
            speedup_vs_serial: 118.7,
        }];
        write_stencil_csv(&path, &cells).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("DCFA-MPI,8,56,166.1,118.7"));
        std::fs::remove_file(&path).unwrap();
    }
}
