//! Regression tests for the entry/death TOCTOU found by the chaos
//! fuzzer (seed 1): an operation whose entry guards passed while the
//! peer was still alive could park in the entry sleep (or a ring-credit
//! wait), get skipped by the one-shot death reap that ran meanwhile,
//! and then enqueue toward the corpse — stranding the caller forever
//! while the heartbeat sidecars kept virtual time alive (a livelock,
//! not a deadlock, so nothing ever reported it).
//!
//! The minimized reproducer is an 8-rank soak with one kill landing
//! mid-round (op 13, while neighbors are inside their entry calls) and
//! a second kill scheduled near the end of phase 1 (op 59) that the
//! first wedge used to keep from ever firing.

use bench::{run, Outcome, Scenario, KILL_SOAK_MAX_AFTER_OPS};
use dcfa_mpi::KillSpec;

/// An 8-rank kill soak with the given `(after_ops, rank)` schedule.
fn kill_soak(srq: bool, specs: &[(u64, usize)]) -> Outcome {
    let kills = specs
        .iter()
        .map(|&(after_ops, rank)| KillSpec { rank, after_ops })
        .collect();
    run(&Scenario::halo(8, srq, Vec::new(), kills).expect("valid schedule"))
}

/// The minimized chaos schedule: early death racing entry calls plus a
/// late second death. Used to livelock before the late failure gates in
/// isend/irecv and the idempotent corpse sweep on QP-flush errors.
#[test]
fn mid_entry_kill_does_not_strand_survivors() {
    let out = kill_soak(true, &[(13, 3), (59, 6)]);
    out.healthy().unwrap_or_else(|violations| {
        panic!("kill soak unhealthy: {violations:?}");
    });
    assert_eq!(out.survivors(), 6);
}

/// The same shape must also recover on the per-pair ring path (no SRQ)
/// and stay bit-for-bit deterministic across runs.
#[test]
fn mid_entry_kill_recovers_without_srq_and_replays_identically() {
    let ks = [(13, 3), (59, 6)];
    let a = kill_soak(false, &ks);
    a.healthy().unwrap_or_else(|violations| {
        panic!("kill soak unhealthy: {violations:?}");
    });
    let b = kill_soak(false, &ks);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "recovery from a mid-entry kill must replay deterministically"
    );
}

/// A kill on the very last phase-1 operation: the corpse dies after
/// every survivor has already posted toward it, so recovery leans
/// entirely on the reap/flush paths rather than the entry guards.
#[test]
fn last_op_kill_recovers() {
    assert_eq!(KILL_SOAK_MAX_AFTER_OPS, 65);
    let out = kill_soak(true, &[(KILL_SOAK_MAX_AFTER_OPS, 2)]);
    out.healthy().unwrap_or_else(|violations| {
        panic!("kill soak unhealthy: {violations:?}");
    });
    assert_eq!(out.survivors(), 7);
}
