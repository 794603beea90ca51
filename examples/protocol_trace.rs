//! Protocol trace: watch the eager and rendezvous state machines on the
//! wire. Sends one small (Eager) and one large (sender-first Rendezvous)
//! message and prints, from the protocol event ring, every packet
//! transmit and every arrival with its virtual timestamp.
//!
//! Transmits and arrivals are message-lifecycle events: the outbound
//! `doorbell`/`nack` stages carry the packet kind, the receiver's `wire`
//! stage marks the arrival. CREDIT packets belong to no message, so they
//! have no lifecycle event and do not appear here. The example exits
//! non-zero unless it saw the EAGER, RTS and DONE transmits in causal
//! order.
//!
//! ```text
//! cargo run --release --example protocol_trace
//! ```

use dcfa_mpi_repro::dcfa_mpi::{
    launch, Communicator, LaunchOpts, MpiConfig, MsgStage, PacketKind, Src, TagSel, TraceBuf,
    TraceEvent,
};
use dcfa_mpi_repro::fabric::{Cluster, ClusterConfig};
use dcfa_mpi_repro::scif::ScifFabric;
use dcfa_mpi_repro::simcore::Simulation;
use dcfa_mpi_repro::verbs::IbFabric;

fn main() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    let tracer = TraceBuf::new(4096);

    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts {
            tracer: Some(tracer.clone()),
            ..LaunchOpts::default()
        },
        move |ctx, comm| {
            let small = comm.alloc(256).unwrap();
            let large = comm.alloc(256 << 10).unwrap();
            if comm.rank() == 0 {
                // Eager: one copy + RDMA write into the peer's ring.
                comm.send(ctx, &small, 1, 1).unwrap();
                // Sender-first rendezvous: RTS -> peer RDMA READ -> DONE.
                comm.send(ctx, &large, 1, 2).unwrap();
            } else {
                comm.recv(ctx, &small, Src::Rank(0), TagSel::Tag(1))
                    .unwrap();
                // Delay so rank 0's RTS arrives before our receive (pure
                // sender-first path).
                ctx.sleep(dcfa_mpi_repro::simcore::SimDuration::from_micros(200));
                comm.recv(ctx, &large, Src::Rank(0), TagSel::Tag(2))
                    .unwrap();
            }
        },
    );
    sim.run_expect();

    println!("packet trace (virtual ns | event):");
    let mut transmits = Vec::new();
    for ev in tracer.snapshot() {
        let TraceEvent::MsgLife {
            at,
            src,
            dst,
            seq,
            stage,
            t,
            len,
        } = ev
        else {
            continue;
        };
        if let Some((from, to, kind, seq)) = ev.packet_tx() {
            println!("[{t:>10}] rank{from} -> rank{to}: {kind:?} seq={seq} len={len}");
            transmits.push(kind);
        } else if stage == MsgStage::Wire {
            let from = if at == dst { src } else { dst };
            println!("[{t:>10}] rank{at} <- rank{from}: wire (message {src}->{dst} seq={seq})");
        }
    }

    let mut want = [PacketKind::Eager, PacketKind::Rts, PacketKind::Done].into_iter();
    let mut next = want.next();
    for kind in transmits {
        if Some(kind) == next {
            next = want.next();
        }
    }
    if let Some(missing) = next {
        eprintln!(
            "protocol_trace: no {missing:?} transmit in causal order after the ones before it"
        );
        std::process::exit(1);
    }
}
