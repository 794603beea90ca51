//! Every [`Scenario`] shape the `repro` soaks and reports run: each must
//! pass its gates and replay to an identical fingerprint, and scenarios
//! the runner cannot execute must be refused at construction — on the
//! command line as exit code 2, never as a panic.

use std::process::Command;

use bench::{run, Scenario};
use dcfa_mpi::KillSpec;

fn kill(after_ops: u64, rank: usize) -> KillSpec {
    KillSpec { rank, after_ops }
}

#[test]
fn every_scenario_is_healthy_and_replays_identically() {
    let link = fabric::parse_fault_spec("2:transient,9:fatal@0->1,17:retry@*->2").unwrap();
    let transient = fabric::parse_fault_spec("7:transient,23:retry,61:transient").unwrap();
    let daemon = dcfa::parse_daemon_fault_spec("6:crash,20:drop@1,35:delay").unwrap();
    let table: Vec<(&str, Scenario)> = vec![
        ("profile", Scenario::profile()),
        (
            "link faults",
            Scenario::mixed(false, link.clone(), Vec::new()),
        ),
        (
            "link faults on SRQ",
            Scenario::mixed(true, link, Vec::new()),
        ),
        ("daemon faults", Scenario::mixed(false, Vec::new(), daemon)),
        (
            "halo",
            Scenario::halo(8, true, transient.clone(), Vec::new()).unwrap(),
        ),
        (
            "halo without SRQ",
            Scenario::halo(8, false, transient, Vec::new()).unwrap(),
        ),
        (
            "kills",
            Scenario::halo(8, true, Vec::new(), vec![kill(13, 3), kill(59, 6)]).unwrap(),
        ),
        ("chaos", Scenario::chaos(3, 8, true).unwrap()),
    ];
    for (name, sc) in &table {
        let first = run(sc);
        if let Err(violations) = first.healthy() {
            panic!("{name}: unhealthy: {violations:?}");
        }
        assert!(first.mpi_ops() > 0, "{name}: no message sent");
        assert_eq!(
            first.fingerprint(),
            run(sc).fingerprint(),
            "{name}: replay diverged"
        );
    }
}

#[test]
fn out_of_range_kill_scenarios_are_refused() {
    let too_few = Scenario::halo(5, true, Vec::new(), vec![kill(10, 1)]);
    assert!(too_few.err().unwrap().contains("at least 8 ranks"));
    assert!(Scenario::chaos(1, 4, true)
        .err()
        .unwrap()
        .contains("at least 8 ranks"));
    let cases = [
        (vec![kill(10, 8)], "out of range"),
        (vec![kill(0, 1)], "after_ops"),
        (vec![kill(66, 1)], "after_ops"),
        (vec![kill(10, 1), kill(20, 1)], "killed twice"),
        (
            (0..5).map(|r| kill(10, r)).collect(),
            "fewer than 4 survivors",
        ),
    ];
    for (kills, why) in cases {
        let err = Scenario::halo(8, true, Vec::new(), kills).err();
        assert!(
            err.as_deref().is_some_and(|e| e.contains(why)),
            "expected {why:?}, got {err:?}"
        );
    }
}

/// Exit code and stderr of `repro` with `args`.
fn repro(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_cli_input_exits_2() {
    let (code, err) = repro(&["--kill", "10:1", "--ranks", "5"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("at least 8 ranks"), "{err}");
    let (code, err) = repro(&["--chaos", "--ranks", "4"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("at least 8 ranks"), "{err}");
    // An unknown flag must not turn its value into a positional figure
    // name and run something else.
    let (code, err) = repro(&["--ranks", "8", "--bogus", "4"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown flag --bogus"), "{err}");
}
