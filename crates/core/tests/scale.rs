//! Scale-path tests: the shared-receive-queue transport (one receive
//! pool per rank instead of per-pair rings), its memory footprint, and
//! the `ResourceExhausted` backpressure contract of the request table.

use std::sync::Arc;

use dcfa_mpi::{
    launch, Comm, CommStats, Communicator, LaunchOpts, MpiConfig, MpiError, Src, StatsReport,
    TagSel, TraceBuf, TraceEvent,
};
use fabric::{Cluster, ClusterConfig};
use parking_lot::Mutex;
use scif::ScifFabric;
use simcore::{Ctx, Simulation};
use verbs::{FaultPlan, IbFabric, SendOpcode, WcStatus};

fn run_mpi<F>(cfg: MpiConfig, nprocs: usize, f: F)
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nprocs.max(2)));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    launch(&sim, &ib, &scif, cfg, nprocs, LaunchOpts::default(), f);
    sim.run_expect();
}

fn srq_cfg() -> MpiConfig {
    MpiConfig {
        srq_depth: Some(256),
        ..MpiConfig::dcfa()
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

#[test]
fn srq_roundtrips_every_protocol_regime() {
    // Eager, threshold and rendezvous sizes all travel the SRQ path with
    // content intact (control packets ride it too).
    for cfg in [
        srq_cfg(),
        MpiConfig {
            srq_depth: Some(256),
            ..MpiConfig::host()
        },
    ] {
        for len in [4u64, 1024, 16 << 10, 256 << 10] {
            let ok = Arc::new(Mutex::new(false));
            let ok2 = ok.clone();
            run_mpi(cfg.clone(), 2, move |ctx, comm| {
                let buf = comm.alloc(len).unwrap();
                if comm.rank() == 0 {
                    comm.write(&buf, 0, &pattern(len as usize, 7));
                    comm.send(ctx, &buf, 1, 5).unwrap();
                } else {
                    let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(5)).unwrap();
                    assert_eq!(st.len, len);
                    assert_eq!(comm.read_vec(&buf), pattern(len as usize, 7));
                    *ok2.lock() = true;
                }
            });
            assert!(*ok.lock(), "len={len}");
        }
    }
}

#[test]
fn srq_all_pairs_exchange_tracks_pool_highwater() {
    // Dense traffic: every rank sends to every other. The shared pool
    // must absorb interleaved arrivals from all peers (high-water > 0)
    // and deliver every payload to the right receive.
    let n = 6usize;
    let stats: Arc<Mutex<Vec<CommStats>>> = Arc::new(Mutex::new(vec![CommStats::default(); n]));
    let s2 = stats.clone();
    run_mpi(srq_cfg(), n, move |ctx, comm| {
        let me = comm.rank();
        let len = 512u64;
        let sbuf = comm.alloc(len).unwrap();
        let rbuf = comm.alloc(len).unwrap();
        for other in 0..n {
            if other == me {
                continue;
            }
            comm.write(&sbuf, 0, &pattern(len as usize, me as u8));
            let sreq = comm.isend(ctx, &sbuf, other, 1).unwrap();
            let rreq = comm
                .irecv(ctx, &rbuf, Src::Rank(other), TagSel::Tag(1))
                .unwrap();
            comm.waitall(ctx, &[sreq, rreq]).unwrap();
            assert_eq!(
                comm.read_vec(&rbuf),
                pattern(len as usize, other as u8),
                "rank {me} <- {other}"
            );
        }
        dcfa_mpi::collectives::barrier(comm, ctx).unwrap();
        s2.lock()[me] = comm.stats();
    });
    let stats = stats.lock();
    for (r, s) in stats.iter().enumerate() {
        assert_eq!(s.pairs_established, (n - 1) as u64, "rank {r}");
        assert!(s.srq_highwater >= 1, "rank {r}: pool never used");
        assert!(
            s.srq_highwater <= 256,
            "rank {r}: high-water {} exceeds pool depth",
            s.srq_highwater
        );
    }
}

#[test]
fn srq_memory_footprint_beats_rings_for_dense_traffic() {
    // The point of the SRQ: with all pairs touched, per-rank buffer
    // memory is one pool + O(peers) stages instead of O(peers) rings +
    // stages. The measured footprint must reflect that.
    let n = 8usize;
    let measure = |cfg: MpiConfig| {
        let bytes: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
        let b2 = bytes.clone();
        run_mpi(cfg, n, move |ctx, comm| {
            let me = comm.rank();
            let buf = comm.alloc(64).unwrap();
            for other in 0..n {
                if other == me {
                    continue;
                }
                let sreq = comm.isend(ctx, &buf, other, 2).unwrap();
                let rreq = comm
                    .irecv(ctx, &buf, Src::Rank(other), TagSel::Tag(2))
                    .unwrap();
                comm.waitall(ctx, &[sreq, rreq]).unwrap();
            }
            dcfa_mpi::collectives::barrier(comm, ctx).unwrap();
            if me == 0 {
                *b2.lock() = comm.stats().comm_buffer_bytes;
            }
        });
        let b = *bytes.lock();
        b
    };
    let ring_bytes = measure(MpiConfig::dcfa());
    let srq_bytes = measure(srq_cfg());
    assert!(
        srq_bytes < ring_bytes,
        "SRQ footprint {srq_bytes} must undercut per-pair rings {ring_bytes}"
    );
}

#[test]
fn isend_backpressure_surfaces_resource_exhausted_and_recovers() {
    // Satellite: a full request table must push back with
    // `ResourceExhausted` — not panic — and accept new work once the
    // caller drains completed requests.
    let cfg = MpiConfig {
        max_requests: 8,
        ..MpiConfig::dcfa()
    };
    let outcome: Arc<Mutex<(usize, bool)>> = Arc::new(Mutex::new((0, false)));
    let o2 = outcome.clone();
    run_mpi(cfg, 2, move |ctx, comm| {
        let len = 64u64;
        let buf = comm.alloc(len).unwrap();
        if comm.rank() == 0 {
            comm.write(&buf, 0, &pattern(len as usize, 1));
            // Fill the request table; the post that overflows it must
            // fail softly.
            let mut reqs = Vec::new();
            let exhausted = loop {
                match comm.isend(ctx, &buf, 1, 7) {
                    Ok(r) => reqs.push(r),
                    Err(MpiError::ResourceExhausted) => break true,
                    Err(e) => panic!("unexpected error: {e:?}"),
                }
                if reqs.len() > 64 {
                    break false; // no backpressure — fail below
                }
            };
            let n = reqs.len();
            // Drain; the freed slots must accept new requests.
            comm.waitall(ctx, &reqs).unwrap();
            let cbuf = comm.alloc(8).unwrap();
            comm.write(&cbuf, 0, &(n as u64).to_le_bytes());
            comm.send(ctx, &cbuf, 1, 8).unwrap();
            *o2.lock() = (n, exhausted);
        } else {
            // Learn how many tag-7 messages are in flight, then receive
            // them all (they queue as unexpected in the meantime).
            let cbuf = comm.alloc(8).unwrap();
            comm.recv(ctx, &cbuf, Src::Rank(0), TagSel::Tag(8)).unwrap();
            let n = u64::from_le_bytes(comm.read_vec(&cbuf).try_into().unwrap());
            for _ in 0..n {
                let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(7)).unwrap();
                assert_eq!(st.len, len);
                assert_eq!(comm.read_vec(&buf), pattern(len as usize, 1));
            }
        }
    });
    let (n, exhausted) = *outcome.lock();
    assert!(exhausted, "request table never pushed back");
    assert!(
        n < 9,
        "backpressure fired only after {n} posts with an 8-slot table"
    );
}

#[test]
fn srq_heals_transient_send_faults_with_reordered_arrivals() {
    // Two-sided Sends have no fixed ring slot: when a faulted packet is
    // retried, its successors can arrive first and must wait in the
    // reorder stash. Inject transient faults into the Send stream and
    // verify every message still lands intact, in order, audit-clean.
    let n = 4usize;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(n));
    let ib = IbFabric::new(cluster.clone());
    for after in [2u64, 5, 9] {
        ib.inject_fault_plan(FaultPlan {
            status: WcStatus::RnrRetryExceeded,
            after_matches: after,
            op: Some(SendOpcode::Send),
            ..Default::default()
        });
    }
    let scif = ScifFabric::new(cluster);
    let tracer = TraceBuf::new(1 << 16);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        ..Default::default()
    };
    let stats: Arc<Mutex<Vec<CommStats>>> = Arc::new(Mutex::new(vec![CommStats::default(); n]));
    let s2 = stats.clone();
    launch(&sim, &ib, &scif, srq_cfg(), n, opts, move |ctx, comm| {
        let me = comm.rank();
        let len = 256u64;
        let buf = comm.alloc(len).unwrap();
        // Ring of messages: each rank streams several eager packets to
        // its successor, so a faulted Send has successors to overtake it.
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        for round in 0..8u8 {
            if me % 2 == 0 {
                comm.write(&buf, 0, &pattern(len as usize, round));
                comm.send(ctx, &buf, next, round as u32).unwrap();
                comm.recv(ctx, &buf, Src::Rank(prev), TagSel::Tag(round as u32))
                    .unwrap();
            } else {
                let salt = round;
                comm.recv(ctx, &buf, Src::Rank(prev), TagSel::Tag(round as u32))
                    .unwrap();
                assert_eq!(comm.read_vec(&buf), pattern(len as usize, salt));
                comm.write(&buf, 0, &pattern(len as usize, round));
                comm.send(ctx, &buf, next, round as u32).unwrap();
            }
        }
        dcfa_mpi::collectives::barrier(comm, ctx).unwrap();
        s2.lock()[me] = comm.stats();
    });
    sim.run_expect();
    let events = tracer.snapshot();
    if let Err(errs) = dcfa_mpi::audit(&events) {
        panic!("auditor found {} violations: {errs:#?}", errs.len());
    }
    let stats = stats.lock();
    let retries: u64 = stats.iter().map(|s| s.wr_retries).sum();
    assert!(retries >= 3, "fault plans never fired (retries={retries})");
}

/// One faulted SRQ halo run: every rank exchanges salted halos with its
/// ring neighbors while transient Send faults fire. Returns the full
/// protocol trace and per-rank counters.
fn faulted_halo_soak() -> (Vec<TraceEvent>, Vec<StatsReport>) {
    let n = 8usize;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(n));
    let ib = IbFabric::new(cluster.clone());
    for after in [3u64, 11] {
        ib.inject_fault_plan(FaultPlan {
            status: WcStatus::RnrRetryExceeded,
            after_matches: after,
            op: Some(SendOpcode::Send),
            ..Default::default()
        });
    }
    let scif = ScifFabric::new(cluster);
    let tracer = TraceBuf::new(1 << 16);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        ..Default::default()
    };
    let reports: Arc<Mutex<Vec<Option<StatsReport>>>> = Arc::new(Mutex::new(vec![None; n]));
    let r2 = reports.clone();
    launch(&sim, &ib, &scif, srq_cfg(), n, opts, move |ctx, comm| {
        let me = comm.rank();
        let len = 512u64;
        let peers = [(me + 1) % n, (me + n - 1) % n];
        let sbufs: Vec<_> = peers.iter().map(|_| comm.alloc(len).unwrap()).collect();
        let rbufs: Vec<_> = peers.iter().map(|_| comm.alloc(len).unwrap()).collect();
        for round in 0..4u32 {
            // Post both neighbor exchanges before waiting — waiting on one
            // neighbor at a time chains into a ring-wide cycle.
            let mut reqs = Vec::with_capacity(4);
            for (i, &peer) in peers.iter().enumerate() {
                comm.write(&sbufs[i], 0, &pattern(len as usize, me as u8 ^ round as u8));
                reqs.push(
                    comm.irecv(ctx, &rbufs[i], Src::Rank(peer), TagSel::Tag(round))
                        .unwrap(),
                );
                reqs.push(comm.isend(ctx, &sbufs[i], peer, round).unwrap());
            }
            comm.waitall(ctx, &reqs).unwrap();
            for (i, &peer) in peers.iter().enumerate() {
                assert_eq!(
                    comm.read_vec(&rbufs[i]),
                    pattern(len as usize, peer as u8 ^ round as u8)
                );
            }
        }
        r2.lock()[me] = Some(comm.dump());
    });
    sim.run_expect();
    let stats = reports
        .lock()
        .iter()
        .map(|r| r.expect("rank finished"))
        .collect();
    (tracer.snapshot(), stats)
}

#[test]
fn faulted_halo_soak_is_deterministic() {
    // The same seed-free run, faults included, produces an identical
    // event trace and identical counters every time.
    let (t1, s1) = faulted_halo_soak();
    assert!(!t1.is_empty());
    let (t2, s2) = faulted_halo_soak();
    assert_eq!(t1, t2, "trace diverged between runs");
    assert_eq!(s1, s2, "counters diverged between runs");
}
