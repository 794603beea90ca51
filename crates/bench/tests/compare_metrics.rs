//! End-to-end regression tests for the `repro --compare-metrics` gate:
//! the process must exit 1 whenever a phase present in the baseline is
//! missing from the candidate report (a silently dropped phase used to
//! evade the p99 drift check entirely), when a new phase appears that the
//! baseline does not know, and when wall-clock throughput falls below a
//! baseline floor. Exit codes are observed on the real binary via
//! `CARGO_BIN_EXE_repro`. A fresh report must also reproduce the
//! committed baseline exactly, outside its machine-dependent sections.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use bench::json::JsonValue;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dcfa-compare-{}-{name}", std::process::id()));
    p
}

/// Run the profiled workload once and return its serialized report
/// (`label` keeps concurrent tests off each other's temp file).
fn current_report(label: &str) -> String {
    let path = tmp(label);
    let out = repro()
        .args(["--metrics-json", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "metrics-json run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    report
}

/// Exit status of `repro --compare-metrics <baseline>` with a generous
/// tolerance, so only structural violations (phases, floors) can fail.
fn compare_exit(baseline: &str, label: &str) -> (i32, String) {
    let path = tmp(label);
    std::fs::write(&path, baseline).unwrap();
    let out = repro()
        .args(["--compare-metrics", path.to_str().unwrap()])
        .args(["--tolerance", "75"])
        .output()
        .expect("spawn repro");
    let _ = std::fs::remove_file(&path);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exit code"), text)
}

#[test]
fn phase_mismatches_and_floors_gate_the_exit_code() {
    let report = current_report("current.json");

    // Sanity: the run is virtually deterministic, so comparing a fresh
    // run against its own report passes.
    let (code, text) = compare_exit(&report, "self.json");
    assert_eq!(code, 0, "self-compare must pass:\n{text}");

    // Baseline knows a phase (Backoff — never produced by the clean
    // profiled run) that the candidate does not: exit 1.
    let marker = "\"phases\":[\n";
    let idx = report.find(marker).expect("phases array") + marker.len();
    let mut with_extra = report.clone();
    with_extra.insert_str(
        idx,
        "  {\"phase\":\"Backoff\",\"count\":1,\"sum_ns\":10,\"min_ns\":10,\
         \"max_ns\":10,\"mean_ns\":10,\"p50_ns\":10,\"p90_ns\":10,\
         \"p99_ns\":10},\n",
    );
    let (code, text) = compare_exit(&with_extra, "missing-in-candidate.json");
    assert_eq!(code, 1, "dropped phase must fail the gate:\n{text}");
    assert!(
        text.contains("missing from current"),
        "violation names the dropped phase:\n{text}"
    );

    // Baseline is missing a phase the candidate produces: exit 1 in the
    // other direction (the baseline no longer describes the code). Drop
    // the first phases entry — it always carries a trailing comma, so the
    // remainder stays valid JSON.
    let line_end = report[idx..].find('\n').expect("phase line") + idx + 1;
    let mut without_first = report.clone();
    without_first.replace_range(idx..line_end, "");
    let (code, text) = compare_exit(&without_first, "new-in-candidate.json");
    assert_eq!(code, 1, "new phase must fail the gate:\n{text}");
    assert!(
        text.contains("absent from baseline"),
        "violation names the new phase:\n{text}"
    );

    // Throughput floor: an absurdly high floor fails (exit 1), a trivial
    // floor passes — the check is one-sided.
    let schema_line_end = report.find(",\n").expect("schema line") + 2;
    let mut high_floor = report.clone();
    high_floor.insert_str(
        schema_line_end,
        "\"throughput_floor\":{\"events_per_sec\":1e15},\n",
    );
    let (code, text) = compare_exit(&high_floor, "floor-high.json");
    assert_eq!(code, 1, "unreachable floor must fail:\n{text}");
    assert!(text.contains("throughput floor"), "{text}");

    let mut low_floor = report.clone();
    low_floor.insert_str(
        schema_line_end,
        "\"throughput_floor\":{\"events_per_sec\":1.0},\n",
    );
    let (code, text) = compare_exit(&low_floor, "floor-low.json");
    assert_eq!(code, 0, "trivial floor must pass:\n{text}");
}

/// Sections of a parsed report, minus the machine-dependent ones: `wall`
/// (real time) and the hand-set `throughput_floor`.
fn virtual_sections(report: &str) -> BTreeMap<String, JsonValue> {
    let Ok(JsonValue::Obj(mut sections)) = bench::json::parse(report) else {
        panic!("report is not a JSON object");
    };
    sections.remove("wall");
    sections.remove("throughput_floor");
    sections
}

/// CI's drift gate tolerates 25%; this test tolerates nothing. The
/// profiled run is virtual-time deterministic, so a fresh report must
/// reproduce the committed baseline exactly in every section — phases,
/// histograms, counters and critical path alike.
#[test]
fn fresh_report_reproduces_the_baseline_exactly() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/baseline_metrics.json"
    );
    let baseline = std::fs::read_to_string(path).expect("committed baseline");
    let want = virtual_sections(&baseline);
    let got = virtual_sections(&current_report("fresh.json"));
    let keys: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
    let differing: Vec<&String> = keys
        .into_iter()
        .filter(|k| want.get(*k) != got.get(*k))
        .collect();
    assert!(
        differing.is_empty(),
        "sections differ from results/baseline_metrics.json: {differing:?}"
    );
}
