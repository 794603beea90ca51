//! Structured protocol tracing and the protocol auditor.
//!
//! Every rank's engine can record [`TraceEvent`]s into a shared,
//! bounded [`TraceBuf`] ring. Each fact is recorded once:
//!
//! - timestamped message-lifecycle edges ([`TraceEvent::MsgLife`]) that
//!   let a post-run stitcher rebuild each message's cross-rank causal
//!   DAG. The outbound ones ([`MsgStage::Doorbell`], [`MsgStage::Nack`])
//!   carry the packet kind, so they are also the record of every packet
//!   transmit (which covers the RTS/RTR/DONE rendezvous transitions);
//! - credit grants, the CREDIT packets that belong to no message;
//! - deliberate re-transmissions (the auditor's duplicate allowance);
//! - MR-cache register/pin/unpin/deregister/evict/invalidate;
//! - control-plane re-attaches and daemon crash/respawn;
//! - offload degradation, rank kills and shrink commits.
//!
//! Counts with no invariant behind them (faults, retries, reaps,
//! revocations, control-plane timeouts) live in `CommStats` and
//! `dcfa::DcfaCounters` only. The simulation runs exactly one process
//! thread at a time, so the ring's order *is* the simulation's causal
//! order and a recorded run replays deterministically.
//!
//! Recording is zero-cost when the `trace` cargo feature is disabled:
//! [`Trace::record`] takes the event as a closure and compiles to
//! nothing, so even the event construction disappears. With the
//! feature enabled (the default) an engine without an attached buffer
//! pays one `Option` check per site.
//!
//! [`audit`] replays a recorded event stream and checks the protocol
//! invariants the paper's design relies on (§IV-B3/§IV-B4). Invariants
//! 1, 3 and 4 read packet transmits from the outbound lifecycle events
//! ([`TraceEvent::packet_tx`]) plus [`TraceEvent::CreditGrant`]:
//!
//! 1. per ordered pair, data sequence ids (EAGER/RTS) are assigned
//!    `0, 1, 2, …` with no gap or repeat;
//! 2. an MR is never deregistered or evicted while pinned by an
//!    outstanding RDMA, and pin/unpin counts never go negative;
//! 3. credit grants are cumulative, never retreat, and never exceed
//!    the packets actually sent to the granter (the sender's window
//!    `sent - consumed` can never go negative);
//! 4. every RTS is answered by exactly one DONE, and every RTR by at
//!    most one DONE-WRITE (stale RTRs are dropped by sequence id);
//! 5. control-plane fault recovery is complete: every daemon crash is
//!    paired with a respawn of the same incarnation, and every client
//!    re-attach replays its *entire* resource journal (`replayed ==
//!    journaled` — no resource silently lost across a respawn);
//! 6. lifecycle completeness: every message `post`ed by a rank that
//!    was not killed reaches exactly one sender-side terminal stage
//!    ([`MsgStage::Complete`] or [`MsgStage::Failed`]). A message with
//!    no terminal is a request the engine stranded; one with two was
//!    resolved twice. The phase histograms are derived from these
//!    intervals, so this is also what keeps them whole.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::packet::PacketKind;
use crate::types::Rank;

/// A stage in one message's lifecycle. Each [`TraceEvent::MsgLife`]
/// event names the stage that *ends* at its timestamp, so two
/// consecutive events of the same message form one causal edge whose
/// duration is the timestamp delta (the stitcher in `bench::stitch`
/// telescopes them into a per-message DAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgStage {
    /// The sender's `isend` assigned the pair sequence id.
    Post,
    /// The send sat parked waiting for ring credit (flow control).
    CreditStall,
    /// The eager one-copy into the staging slot (or the receive-side
    /// copy out of the ring slot into the user buffer) finished.
    Copy,
    /// The offloading-send-buffer DMA sync to the host twin finished.
    OffloadSync,
    /// The rendezvous source lease was acquired (MR-cache hit, or a
    /// registration command round-trip through the DCFA daemon).
    MrAcquire,
    /// The packet's work request was posted (doorbell rung). The
    /// outbound packet's kind (never CREDIT, which belongs to no
    /// message) makes this the record of the transmit.
    Doorbell(PacketKind),
    /// The packet was consumed from the wire at the receiver.
    Wire,
    /// SRQ mode: the packet overtook its predecessors and was parked in
    /// the per-peer reorder stash.
    SrqStash,
    /// The packet arrived before its receive was posted and was parked
    /// in the unexpected-message queue.
    UnexpStash,
    /// The message matched a posted receive.
    Match,
    /// The rendezvous RDMA READ/WRITE was posted.
    RdmaStart,
    /// The rendezvous RDMA READ/WRITE completed.
    RdmaDone,
    /// A transiently failed work request entered retry backoff.
    Backoff,
    /// A backed-off work request was re-posted.
    Retry,
    /// A NACK for this message was transmitted (transport abort); the
    /// kind is `NackSend`, `Nack` or `NackWrite`.
    Nack(PacketKind),
    /// The message resolved at this rank (request done).
    Complete,
    /// The message's request at this rank failed (transport error, NACK,
    /// dead peer or revocation). Like `Complete`, a terminal stage.
    Failed,
}

impl MsgStage {
    /// Stable lower-case name (report keys, Perfetto slice names).
    pub fn name(self) -> &'static str {
        match self {
            MsgStage::Post => "post",
            MsgStage::CreditStall => "credit_stall",
            MsgStage::Copy => "copy",
            MsgStage::OffloadSync => "offload_sync",
            MsgStage::MrAcquire => "mr_acquire",
            MsgStage::Doorbell(_) => "doorbell",
            MsgStage::Wire => "wire",
            MsgStage::SrqStash => "srq_stash",
            MsgStage::UnexpStash => "unexp_stash",
            MsgStage::Match => "match",
            MsgStage::RdmaStart => "rdma_start",
            MsgStage::RdmaDone => "rdma_done",
            MsgStage::Backoff => "backoff",
            MsgStage::Retry => "retry",
            MsgStage::Nack(_) => "nack",
            MsgStage::Complete => "complete",
            MsgStage::Failed => "failed",
        }
    }
}

/// One recorded protocol event. `from`/`to`/`at` identify ranks;
/// MR events identify regions by their registration key, which is
/// unique per registration within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A memory region entered the MR cache layer (fresh registration).
    MrRegister {
        rank: Rank,
        key: u32,
        addr: u64,
        len: u64,
        cached: bool,
    },
    /// A region left the cache layer and was deregistered.
    MrDeregister { rank: Rank, key: u32 },
    /// A cached region was evicted (LRU) and deregistered.
    MrEvict { rank: Rank, key: u32 },
    /// A lease pinned the region (an RDMA may now target it).
    MrPin { rank: Rank, key: u32 },
    /// The lease was released.
    MrUnpin { rank: Rank, key: u32 },
    /// `from` transmitted a CREDIT packet to `to` reporting `consumed`
    /// cumulative ring slots. CREDITs belong to no message, so this is
    /// their only record.
    CreditGrant { from: Rank, to: Rank, consumed: u64 },
    /// `from` is about to deliberately re-transmit a packet it already
    /// sent (handshake watchdog re-issue or duplicate-answer replay).
    /// Grants the auditor an allowance for one duplicate transmit with
    /// these coordinates, which is exempt from sequence/pairing
    /// accounting.
    Retrans {
        from: Rank,
        to: Rank,
        kind: PacketKind,
        seq: u64,
    },
    /// A cached region was dropped because the daemon had already
    /// reclaimed the underlying registration (lease expiry or crash
    /// drain). Lifecycle-wise this is a deregister: the key must never
    /// be handed out again afterwards.
    MrInvalidated { rank: Rank, key: u32 },
    /// A client re-attached to its node daemon and replayed its resource
    /// journal under control `epoch`. The auditor requires
    /// `replayed == journaled`: every journaled resource must be
    /// re-established (adopted or re-registered) after a respawn.
    CtrlReattach {
        client: u32,
        epoch: u32,
        journaled: u64,
        replayed: u64,
    },
    /// The node's delegation daemon crashed; `epoch` is the incarnation
    /// that will replace it.
    DaemonCrash { node: usize, epoch: u32 },
    /// The supervisor respawned the node daemon as incarnation `epoch`.
    DaemonRespawn { node: usize, epoch: u32 },
    /// The rank gave up on offload twins (repeated registration failure)
    /// and degraded to direct-from-Phi rendezvous sends.
    OffloadDegraded { rank: Rank },
    /// `rank` was fail-stop killed (injection or chaos schedule). From
    /// this point the auditor forgives end-of-stream obligations that
    /// involve the dead rank: its unreleased pins, unresolved messages
    /// and handshakes with it as an endpoint can never complete.
    RankKilled { rank: Rank },
    /// The shrink agreement committed `epoch`, producing a
    /// `survivors`-rank world.
    ShrinkCommit { epoch: u64, survivors: u64 },
    /// A message-lifecycle edge event observed at rank `at`, in virtual
    /// time `t` (nanoseconds). The message is identified by its stable
    /// `MsgId` `(src, dst, seq)` — the sender, the receiver, and the
    /// sender-stream pair sequence id already carried in every
    /// [`crate::packet::PacketHeader`] — which is what lets the
    /// post-run stitcher join per-rank streams into one cross-rank
    /// causal DAG. `stage` names the edge ending at this event; `len`
    /// is the message payload length (0 where unknown, e.g. NACKs).
    MsgLife {
        at: Rank,
        src: Rank,
        dst: Rank,
        seq: u64,
        stage: MsgStage,
        t: u64,
        len: u64,
    },
}

impl TraceEvent {
    /// `(from, to, kind, seq)` when this event records a packet leaving
    /// `from`'s engine: the outbound lifecycle stages
    /// [`MsgStage::Doorbell`] and [`MsgStage::Nack`]. CREDIT packets are
    /// recorded by [`TraceEvent::CreditGrant`] instead.
    pub fn packet_tx(&self) -> Option<(Rank, Rank, PacketKind, u64)> {
        let TraceEvent::MsgLife {
            at,
            src,
            dst,
            seq,
            stage: MsgStage::Doorbell(kind) | MsgStage::Nack(kind),
            ..
        } = *self
        else {
            return None;
        };
        // The transmitting rank is `at`; the packet goes to the message's
        // other end.
        Some((at, if at == src { dst } else { src }, kind, seq))
    }
}

struct TraceInner {
    events: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

/// Shared bounded ring of [`TraceEvent`]s. Clone-able; all ranks of a
/// launch append to the same ring, in simulation order.
#[derive(Clone)]
pub struct TraceBuf {
    inner: Arc<Mutex<TraceInner>>,
}

impl TraceBuf {
    /// A ring holding at most `cap` events; older events are dropped
    /// (and counted) once full.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "trace ring capacity must be positive");
        TraceBuf {
            inner: Arc::new(Mutex::new(TraceInner {
                events: VecDeque::new(),
                cap,
                dropped: 0,
            })),
        }
    }

    pub fn record(&self, ev: TraceEvent) {
        let mut g = self.inner.lock();
        if g.events.len() == g.cap {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(ev);
    }

    /// Copy of the ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().copied().collect()
    }

    /// Events discarded because the ring was full. Audits of a full run
    /// are only meaningful when this is zero.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("TraceBuf")
            .field("len", &g.events.len())
            .field("cap", &g.cap)
            .field("dropped", &g.dropped)
            .finish()
    }
}

/// Per-engine recording handle: the rank stamp plus (when tracing is
/// compiled in) an optional attachment to a shared [`TraceBuf`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    #[cfg(feature = "trace")]
    buf: Option<TraceBuf>,
}

impl Trace {
    /// Attach to a shared ring.
    pub fn attach(&mut self, buf: TraceBuf) {
        #[cfg(feature = "trace")]
        {
            self.buf = Some(buf);
        }
        #[cfg(not(feature = "trace"))]
        let _ = buf;
    }

    /// Record an event. The closure only runs when a buffer is
    /// attached; with the `trace` feature disabled the whole call
    /// compiles away.
    #[inline]
    pub fn record(&self, ev: impl FnOnce() -> TraceEvent) {
        #[cfg(feature = "trace")]
        if let Some(buf) = &self.buf {
            buf.record(ev());
        }
        #[cfg(not(feature = "trace"))]
        let _ = ev;
    }
}

/// Summary counts from a successful [`audit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Data packets (EAGER/RTS) transmitted.
    pub data_packets: u64,
    /// RTS handshakes observed, each matched by exactly one DONE.
    pub rts_matched: u64,
    /// RTR advertisements observed.
    pub rtrs: u64,
    /// Cache-layer MR registrations observed.
    pub mr_registered: u64,
    /// Regions registered but never deregistered within the stream.
    /// Zero when the stream covers the full run through finalize.
    pub mr_leaked: u64,
    /// Credit grant packets observed.
    pub credit_grants: u64,
    /// Deliberate re-transmissions (watchdog re-issues, replayed answers).
    pub retransmissions: u64,
    /// NACK packets (NackSend/Nack/NackWrite) transmitted.
    pub nacks: u64,
    /// Cached regions invalidated after daemon-side reclamation.
    pub mr_invalidated: u64,
    /// Client re-attaches, each with its full journal replayed.
    pub reattaches: u64,
    /// Daemon crashes observed, each paired with a respawn.
    pub daemon_crashes: u64,
    /// Ranks that degraded to direct-from-Phi rendezvous sends.
    pub offload_degraded: u64,
    /// Ranks fail-stop killed within the stream.
    pub ranks_killed: u64,
    /// Shrink agreements committed.
    pub shrink_commits: u64,
    /// Message-lifecycle edge events observed (see [`MsgStage`]).
    pub lifecycle_events: u64,
    /// Events the trace ring discarded before this stream was captured.
    /// Not derivable from the stream itself — callers that hold the
    /// [`TraceBuf`] stamp it in from [`TraceBuf::dropped`] after a
    /// successful audit. Non-zero means the audit covered a suffix of
    /// the run, not all of it, and any stitched DAG is partial.
    pub events_dropped: u64,
}

/// Check the protocol invariants over a recorded event stream.
/// Returns the summary on success, or every violation found.
pub fn audit(events: &[TraceEvent]) -> Result<AuditReport, Vec<String>> {
    let mut errs: Vec<String> = Vec::new();
    let mut report = AuditReport::default();

    // Invariant 1: per-pair data seq ids count 0, 1, 2, …
    let mut next_data_seq: HashMap<(Rank, Rank), u64> = HashMap::new();
    // Invariant 2: per-(rank, key) MR lifecycle.
    #[derive(Default)]
    struct MrState {
        pins: i64,
        live: bool,
        ever: bool,
    }
    let mut mrs: HashMap<(Rank, u32), MrState> = HashMap::new();
    // Invariant 3: per ordered pair, packets sent and credits granted.
    let mut sent: HashMap<(Rank, Rank), u64> = HashMap::new();
    let mut granted: HashMap<(Rank, Rank), u64> = HashMap::new();
    // Invariant 4: RTS -> DONE and RTR -> DONE-WRITE pairing.
    let mut rts_done: HashMap<(Rank, Rank, u64), (u64, u64)> = HashMap::new();
    let mut rtr_dw: HashMap<(Rank, Rank, u64), (u64, u64)> = HashMap::new();
    // Outstanding duplicate allowances from `Retrans` events.
    let mut allowed_dups: HashMap<(Rank, Rank, PacketKind, u64), u64> = HashMap::new();
    // Invariant 5: per-(node, epoch) daemon crash/respawn pairing.
    let mut crash_respawn: HashMap<(usize, u32), (u64, u64)> = HashMap::new();
    // Invariant 6: sender-side terminals per posted message (src, dst, seq).
    let mut terminals: HashMap<(Rank, Rank, u64), u32> = HashMap::new();
    // Fail-stop killed ranks: end-of-stream obligations touching a dead
    // rank are forgiven (the rank can never answer or release anything).
    let mut killed: HashSet<Rank> = HashSet::new();

    for (i, ev) in events.iter().enumerate() {
        match *ev {
            TraceEvent::MrRegister { rank, key, .. } => {
                report.mr_registered += 1;
                let st = mrs.entry((rank, key)).or_default();
                if st.live {
                    errs.push(format!("[{i}] rank{rank} mr {key}: registered twice"));
                }
                st.live = true;
                st.ever = true;
            }
            TraceEvent::MrDeregister { rank, key }
            | TraceEvent::MrEvict { rank, key }
            | TraceEvent::MrInvalidated { rank, key } => {
                if matches!(ev, TraceEvent::MrInvalidated { .. }) {
                    report.mr_invalidated += 1;
                }
                let st = mrs.entry((rank, key)).or_default();
                if !st.live {
                    errs.push(format!(
                        "[{i}] rank{rank} mr {key}: deregistered while not registered"
                    ));
                }
                if st.pins > 0 {
                    errs.push(format!(
                        "[{i}] rank{rank} mr {key}: deregistered with {} outstanding pin(s) (use-after-free)",
                        st.pins
                    ));
                }
                st.live = false;
            }
            TraceEvent::MrPin { rank, key } => {
                let st = mrs.entry((rank, key)).or_default();
                if !st.live {
                    errs.push(format!(
                        "[{i}] rank{rank} mr {key}: pinned while not registered"
                    ));
                }
                st.pins += 1;
            }
            TraceEvent::MrUnpin { rank, key } => {
                let st = mrs.entry((rank, key)).or_default();
                st.pins -= 1;
                if st.pins < 0 {
                    errs.push(format!(
                        "[{i}] rank{rank} mr {key}: pin count went negative"
                    ));
                }
            }
            TraceEvent::CreditGrant { from, to, consumed } => {
                report.credit_grants += 1;
                // The CREDIT packet itself counts toward `from -> to`.
                *sent.entry((from, to)).or_default() += 1;
                let prev = granted.entry((from, to)).or_default();
                if consumed < *prev {
                    errs.push(format!(
                        "[{i}] credit {from}->{to}: grant retreated from {prev} to {consumed}"
                    ));
                }
                *prev = (*prev).max(consumed);
                let sent_to_granter = sent.get(&(to, from)).copied().unwrap_or(0);
                if consumed > sent_to_granter {
                    errs.push(format!(
                        "[{i}] credit {from}->{to}: granted {consumed} > {sent_to_granter} packets sent \
                         (window would go negative)"
                    ));
                }
            }
            TraceEvent::Retrans {
                from,
                to,
                kind,
                seq,
            } => {
                report.retransmissions += 1;
                *allowed_dups.entry((from, to, kind, seq)).or_default() += 1;
            }
            TraceEvent::CtrlReattach {
                client,
                epoch,
                journaled,
                replayed,
            } => {
                report.reattaches += 1;
                if replayed != journaled {
                    errs.push(format!(
                        "[{i}] client {client} reattach (epoch {epoch}): replayed {replayed} of \
                         {journaled} journaled resources (resource lost across respawn)"
                    ));
                }
            }
            TraceEvent::DaemonCrash { node, epoch } => {
                report.daemon_crashes += 1;
                crash_respawn.entry((node, epoch)).or_default().0 += 1;
            }
            TraceEvent::DaemonRespawn { node, epoch } => {
                crash_respawn.entry((node, epoch)).or_default().1 += 1;
            }
            TraceEvent::OffloadDegraded { .. } => {
                report.offload_degraded += 1;
            }
            TraceEvent::RankKilled { rank } => {
                report.ranks_killed += 1;
                killed.insert(rank);
            }
            TraceEvent::ShrinkCommit { .. } => {
                report.shrink_commits += 1;
            }
            TraceEvent::MsgLife {
                at,
                src,
                dst,
                seq,
                stage,
                ..
            } => {
                report.lifecycle_events += 1;
                match stage {
                    MsgStage::Post => {
                        terminals.insert((src, dst, seq), 0);
                    }
                    MsgStage::Complete | MsgStage::Failed if at == src => {
                        if let Some(n) = terminals.get_mut(&(src, dst, seq)) {
                            *n += 1;
                        }
                    }
                    _ => {}
                }
                let Some((from, to, kind, seq)) = ev.packet_tx() else {
                    continue;
                };
                *sent.entry((from, to)).or_default() += 1;
                // A deliberate re-transmission consumes its allowance and
                // is exempt from sequence/pairing accounting (it still
                // counts as a sent packet — the safe direction for the
                // credit-window invariant).
                if let Some(a) = allowed_dups.get_mut(&(from, to, kind, seq)) {
                    if *a > 0 {
                        *a -= 1;
                        continue;
                    }
                }
                match kind {
                    PacketKind::Eager | PacketKind::Rts => {
                        report.data_packets += 1;
                        let next = next_data_seq.entry((from, to)).or_default();
                        if seq != *next {
                            errs.push(format!(
                                "[{i}] pair {from}->{to}: data seq {seq}, expected {next} (gap or repeat)"
                            ));
                        }
                        *next = (*next).max(seq) + 1;
                        if kind == PacketKind::Rts {
                            rts_done.entry((from, to, seq)).or_default().0 += 1;
                        }
                    }
                    PacketKind::Rtr => {
                        report.rtrs += 1;
                        // RTR from receiver `from` advertises seq of
                        // sender `to`'s stream; DONE-WRITE comes back
                        // to -> from with the same seq.
                        rtr_dw.entry((from, to, seq)).or_default().0 += 1;
                    }
                    PacketKind::Done => {
                        // DONE from receiver `from` answers `to`'s RTS.
                        rts_done.entry((to, from, seq)).or_default().1 += 1;
                    }
                    PacketKind::DoneWrite => {
                        // DONE-WRITE from sender `from` answers `to`'s RTR.
                        rtr_dw.entry((to, from, seq)).or_default().1 += 1;
                        // A receiver-first transfer consumes a sender-stream
                        // seq without an EAGER/RTS packet; keep the pair's
                        // data sequence accounting in step.
                        let next = next_data_seq.entry((from, to)).or_default();
                        *next = (*next).max(seq + 1);
                    }
                    PacketKind::NackSend => {
                        // Rewrite of a dead EAGER/RTS slot. The original
                        // data packet already consumed its seq; if it was
                        // an RTS, the NACK stands in for its DONE.
                        report.nacks += 1;
                        if let Some(e) = rts_done.get_mut(&(from, to, seq)) {
                            e.1 += 1;
                        }
                    }
                    PacketKind::Nack => {
                        // Negative DONE from receiver `from` for `to`'s RTS.
                        report.nacks += 1;
                        rts_done.entry((to, from, seq)).or_default().1 += 1;
                    }
                    PacketKind::NackWrite => {
                        // Negative DONE-WRITE from sender `from`. Like its
                        // healthy twin, it stands in for the sender-stream
                        // seq the dead receiver-first transfer consumed.
                        report.nacks += 1;
                        rtr_dw.entry((to, from, seq)).or_default().1 += 1;
                        let next = next_data_seq.entry((from, to)).or_default();
                        *next = (*next).max(seq + 1);
                    }
                    // CREDITs are recorded by `CreditGrant`, never by a
                    // lifecycle event.
                    PacketKind::Credit => {}
                }
            }
        }
    }

    for ((a, b, seq), (rts, done)) in &rts_done {
        if *rts != *done {
            if killed.contains(a) || killed.contains(b) {
                continue; // a dead endpoint can never answer
            }
            errs.push(format!(
                "RTS {a}->{b} seq {seq}: {rts} RTS vs {done} DONE (must pair exactly)"
            ));
        } else {
            report.rts_matched += *rts;
        }
    }
    for ((a, b, seq), (rtr, dw)) in &rtr_dw {
        if *dw > *rtr && !killed.contains(a) && !killed.contains(b) {
            errs.push(format!(
                "RTR {a}->{b} seq {seq}: {dw} DONE-WRITE for {rtr} RTR"
            ));
        }
    }
    for ((rank, key), st) in &mrs {
        if st.live {
            report.mr_leaked += 1;
        }
        if st.pins != 0 && !killed.contains(rank) {
            errs.push(format!(
                "rank{rank} mr {key}: {} pin(s) never released",
                st.pins
            ));
        }
    }
    for ((node, epoch), (crashes, respawns)) in &crash_respawn {
        if crashes != respawns {
            errs.push(format!(
                "node{node} epoch {epoch}: {crashes} crash(es) vs {respawns} respawn(s) \
                 (daemon incarnation not recovered)"
            ));
        }
    }
    for ((src, dst, seq), n) in &terminals {
        match n {
            1 => {}
            // The dead sender's engine was torn down mid-message.
            0 if killed.contains(src) => {}
            0 => errs.push(format!(
                "msg {src}->{dst} seq {seq}: posted but never completed or failed at the sender"
            )),
            _ => errs.push(format!(
                "msg {src}->{dst} seq {seq}: resolved {n} times at the sender"
            )),
        }
    }

    if errs.is_empty() {
        Ok(report)
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use PacketKind::*;

    /// The outbound lifecycle event the engine records when `from`
    /// transmits a `kind` packet to `to`: forward kinds belong to the
    /// `from -> to` message, backward ones (RTR, DONE, NACK) to `to`'s
    /// message toward `from`.
    fn tx(from: Rank, to: Rank, kind: PacketKind, seq: u64) -> TraceEvent {
        let forward = !matches!(kind, Rtr | Done | Nack);
        let (src, dst) = if forward { (from, to) } else { (to, from) };
        let stage = match kind {
            NackSend | Nack | NackWrite => MsgStage::Nack(kind),
            _ => MsgStage::Doorbell(kind),
        };
        TraceEvent::MsgLife {
            at: from,
            src,
            dst,
            seq,
            stage,
            t: 0,
            len: 64,
        }
    }

    #[test]
    fn packet_tx_recovers_the_transmit() {
        for kind in [Eager, Rts, Rtr, Done, DoneWrite, NackSend, Nack, NackWrite] {
            assert_eq!(
                tx(2, 5, kind, 9).packet_tx(),
                Some((2, 5, kind, 9)),
                "{kind:?}"
            );
        }
        let recv = TraceEvent::MsgLife {
            at: 1,
            src: 0,
            dst: 1,
            seq: 0,
            stage: MsgStage::Wire,
            t: 0,
            len: 64,
        };
        assert_eq!(recv.packet_tx(), None, "an arrival is not a transmit");
        assert_eq!(MsgStage::Doorbell(Rts).name(), "doorbell");
        assert_eq!(MsgStage::Nack(NackWrite).name(), "nack");
    }

    #[test]
    fn ring_drops_oldest() {
        let buf = TraceBuf::new(2);
        for seq in 0..3 {
            buf.record(tx(0, 1, Eager, seq));
        }
        let evs = buf.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(buf.dropped(), 1);
        assert!(matches!(evs[0], TraceEvent::MsgLife { seq: 1, .. }));
    }

    #[test]
    fn audit_accepts_clean_handshake() {
        let evs = vec![
            TraceEvent::MrRegister {
                rank: 0,
                key: 7,
                addr: 0x1000,
                len: 4096,
                cached: true,
            },
            TraceEvent::MrPin { rank: 0, key: 7 },
            tx(0, 1, Rts, 0),
            tx(1, 0, Done, 0),
            TraceEvent::MrUnpin { rank: 0, key: 7 },
            TraceEvent::MrDeregister { rank: 0, key: 7 },
        ];
        let r = audit(&evs).expect("clean stream");
        assert_eq!(r.rts_matched, 1);
        assert_eq!(r.data_packets, 1);
        assert_eq!(r.mr_registered, 1);
        assert_eq!(r.mr_leaked, 0);
    }

    #[test]
    fn audit_flags_seq_gap() {
        let evs = vec![tx(0, 1, Eager, 0), tx(0, 1, Eager, 2)];
        let errs = audit(&evs).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("expected 1")), "{errs:?}");
    }

    #[test]
    fn audit_flags_pinned_dereg_and_leak() {
        let evs = vec![
            TraceEvent::MrRegister {
                rank: 2,
                key: 9,
                addr: 0,
                len: 4096,
                cached: true,
            },
            TraceEvent::MrPin { rank: 2, key: 9 },
            TraceEvent::MrEvict { rank: 2, key: 9 },
        ];
        let errs = audit(&evs).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("outstanding pin")),
            "{errs:?}"
        );

        let leak = vec![TraceEvent::MrRegister {
            rank: 0,
            key: 1,
            addr: 0,
            len: 4096,
            cached: false,
        }];
        let r = audit(&leak).expect("a leak is legal mid-run");
        assert_eq!(r.mr_leaked, 1);
    }

    #[test]
    fn audit_flags_negative_credit_window() {
        let evs = vec![
            tx(0, 1, Eager, 0),
            TraceEvent::CreditGrant {
                from: 1,
                to: 0,
                consumed: 2,
            },
        ];
        let errs = audit(&evs).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("window would go negative")),
            "{errs:?}"
        );
    }

    #[test]
    fn credit_packets_count_as_sent() {
        // A CREDIT has no lifecycle event: its `CreditGrant` is the
        // packet, and it occupies a slot in the granter's ring toward the
        // peer like any other packet.
        let grant = |from, to, consumed| TraceEvent::CreditGrant { from, to, consumed };
        let evs = vec![tx(0, 1, Eager, 0), grant(1, 0, 1), grant(0, 1, 1)];
        let r = audit(&evs).expect("each grant covers a packet sent to the granter");
        assert_eq!(r.credit_grants, 2);
        let errs = audit(&[tx(0, 1, Eager, 0), grant(1, 0, 1), grant(0, 1, 2)]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("granted 2 > 1")), "{errs:?}");
    }

    #[test]
    fn audit_flags_unmatched_rts() {
        let errs = audit(&[tx(0, 1, Rts, 0)]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("must pair exactly")),
            "{errs:?}"
        );
    }

    #[test]
    fn retrans_allowance_exempts_duplicate() {
        let (rts, done) = (tx(0, 1, Rts, 0), tx(1, 0, Done, 0));
        // Duplicate RTS without an allowance: seq repeat.
        let errs = audit(&[rts, rts, done]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("gap or repeat")), "{errs:?}");

        // With the allowance the duplicate is exempt.
        let allow = TraceEvent::Retrans {
            from: 0,
            to: 1,
            kind: Rts,
            seq: 0,
        };
        let r = audit(&[rts, allow, rts, done]).expect("allowance covers the dup");
        assert_eq!(r.rts_matched, 1);
        assert_eq!(r.retransmissions, 1);

        // An allowance names one packet: the receiver's replayed DONE is
        // not covered by the sender's RTS allowance.
        let errs = audit(&[rts, allow, rts, done, done]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("1 RTS vs 2 DONE")),
            "{errs:?}"
        );
    }

    #[test]
    fn nacks_pair_dead_handshakes() {
        // A dead RTS answered by the receiver's Nack pairs exactly.
        let r = audit(&[tx(0, 1, Rts, 0), tx(1, 0, Nack, 0)]).expect("nack answers the rts");
        assert_eq!(r.nacks, 1);

        // A dead RTS whose slot was rewritten as NackSend also pairs.
        audit(&[tx(0, 1, Rts, 0), tx(0, 1, NackSend, 0)])
            .expect("slot rewrite stands in for the DONE");

        // A dead EAGER slot rewrite creates no bogus handshake entry.
        audit(&[tx(0, 1, Eager, 0), tx(0, 1, NackSend, 0)]).expect("eager nack is pairing-neutral");

        // An RTR answered negatively by NackWrite stays within its budget.
        audit(&[tx(1, 0, Rtr, 0), tx(0, 1, NackWrite, 0)]).expect("nack-write answers the rtr");

        // Without its NACK the dead RTS is unmatched.
        let errs = audit(&[tx(0, 1, Rts, 0)]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("1 RTS vs 0 DONE")),
            "{errs:?}"
        );
    }

    #[test]
    fn receiver_first_transfer_consumes_a_sender_seq() {
        // A receiver-first rendezvous (RTR answered by DONE-WRITE, no
        // EAGER/RTS on the wire) still consumes the sender's stream seq;
        // a follow-up send on the pair must not look like a gap. The
        // same holds when the transfer dies and NACK-WRITE stands in.
        for answer in [DoneWrite, NackWrite] {
            let evs = vec![tx(1, 0, Rtr, 0), tx(0, 1, answer, 0), tx(0, 1, Eager, 1)];
            audit(&evs)
                .unwrap_or_else(|e| panic!("follow-up after {answer:?} flagged as seq gap: {e:?}"));
        }
    }

    #[test]
    fn invalidation_is_a_deregister() {
        // An invalidated region leaves the lifecycle cleanly…
        let evs = vec![
            TraceEvent::MrRegister {
                rank: 0,
                key: 3,
                addr: 0,
                len: 4096,
                cached: true,
            },
            TraceEvent::MrInvalidated { rank: 0, key: 3 },
        ];
        let r = audit(&evs).expect("invalidation closes the lifecycle");
        assert_eq!(r.mr_invalidated, 1);
        assert_eq!(r.mr_leaked, 0);

        // …but invalidating a pinned region is use-after-free.
        let evs = vec![
            TraceEvent::MrRegister {
                rank: 0,
                key: 3,
                addr: 0,
                len: 4096,
                cached: true,
            },
            TraceEvent::MrPin { rank: 0, key: 3 },
            TraceEvent::MrInvalidated { rank: 0, key: 3 },
        ];
        let errs = audit(&evs).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("outstanding pin")),
            "{errs:?}"
        );
    }

    #[test]
    fn reattach_must_replay_full_journal() {
        let ok = TraceEvent::CtrlReattach {
            client: 1,
            epoch: 1,
            journaled: 3,
            replayed: 3,
        };
        let r = audit(&[ok]).expect("full replay is clean");
        assert_eq!(r.reattaches, 1);

        let short = TraceEvent::CtrlReattach {
            client: 1,
            epoch: 1,
            journaled: 3,
            replayed: 2,
        };
        let errs = audit(&[short]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("resource lost")), "{errs:?}");
    }

    #[test]
    fn crash_must_pair_with_respawn() {
        let crash = TraceEvent::DaemonCrash { node: 0, epoch: 1 };
        let respawn = TraceEvent::DaemonRespawn { node: 0, epoch: 1 };
        let r = audit(&[crash, respawn]).expect("paired incarnation");
        assert_eq!(r.daemon_crashes, 1);

        let errs = audit(&[crash]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not recovered")), "{errs:?}");

        // Same epoch number on a *different* node is a separate pairing.
        let other = TraceEvent::DaemonCrash { node: 1, epoch: 1 };
        let errs = audit(&[crash, respawn, other]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("node1")), "{errs:?}");
    }

    /// A sender-side lifecycle event of message `0 -> 1 seq 5`.
    fn sender_life(stage: MsgStage, t: u64) -> TraceEvent {
        TraceEvent::MsgLife {
            at: 0,
            src: 0,
            dst: 1,
            seq: 5,
            stage,
            t,
            len: 64,
        }
    }

    #[test]
    fn posted_message_without_terminal_fails_audit() {
        let errs = audit(&[sender_life(MsgStage::Post, 10)]).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("0->1 seq 5") && e.contains("never completed or failed")),
            "{errs:?}"
        );
        // A receiver-side terminal does not resolve the sender's request.
        let recv_done = TraceEvent::MsgLife {
            at: 1,
            src: 0,
            dst: 1,
            seq: 5,
            stage: MsgStage::Complete,
            t: 20,
            len: 64,
        };
        audit(&[sender_life(MsgStage::Post, 10), recv_done]).unwrap_err();
    }

    #[test]
    fn message_resolved_twice_fails_audit() {
        let errs = audit(&[
            sender_life(MsgStage::Post, 10),
            sender_life(MsgStage::Complete, 20),
            sender_life(MsgStage::Failed, 30),
        ])
        .unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("resolved 2 times")),
            "{errs:?}"
        );
    }

    #[test]
    fn failed_is_a_sender_terminal() {
        let r = audit(&[
            sender_life(MsgStage::Post, 10),
            sender_life(MsgStage::Copy, 15),
            sender_life(MsgStage::Failed, 20),
        ])
        .expect("a failed message is resolved");
        assert_eq!(r.lifecycle_events, 3);
    }

    #[test]
    fn open_message_from_killed_sender_passes() {
        let r = audit(&[
            sender_life(MsgStage::Post, 10),
            TraceEvent::RankKilled { rank: 0 },
        ])
        .expect("a killed sender's open message is forgiven");
        assert_eq!(r.ranks_killed, 1);
        // The receiver's death forgives nothing: the live sender must
        // still fail the request.
        let errs = audit(&[
            sender_life(MsgStage::Post, 10),
            TraceEvent::RankKilled { rank: 1 },
        ])
        .unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("never completed")),
            "{errs:?}"
        );
    }

    #[test]
    fn lifecycle_events_are_counted_with_their_transmits() {
        // A resolved message's lifecycle alone is clean, and its
        // transmits are checked like any other: a handshake's doorbells
        // pair exactly and count as lifecycle events too.
        let life = |at, stage, t| TraceEvent::MsgLife {
            at,
            src: 0,
            dst: 1,
            seq: 0,
            stage,
            t,
            len: 64,
        };
        let r = audit(&[
            life(0, MsgStage::Post, 100),
            life(0, MsgStage::Doorbell(Eager), 250),
            life(1, MsgStage::Wire, 900),
            life(0, MsgStage::Complete, 1000),
        ])
        .expect("lifecycle-only stream is clean");
        assert_eq!(r.lifecycle_events, 4);
        assert_eq!(r.data_packets, 1);
        assert_eq!(r.events_dropped, 0, "audit never invents drops");

        let evs = vec![
            life(0, MsgStage::Post, 10),
            life(0, MsgStage::Doorbell(Rts), 20),
            life(1, MsgStage::Doorbell(Done), 4000),
            life(0, MsgStage::Complete, 5000),
        ];
        let r = audit(&evs).expect("handshake is clean");
        assert_eq!(r.rts_matched, 1);
        assert_eq!(r.lifecycle_events, 4);
    }
}
