//! The benchmark's own tests: argument parsing, the sample hand-off, the
//! result line against `BENCHMARK.json`, and reduced-size smokes of each
//! driver showing that every gate passes on a healthy run and fires on a
//! broken one.

use super::*;
use report::{Def, Figure};
use std::collections::BTreeMap;
use workload::{reference_violations, FIG8_BW_4MIB_GBS, FIG9_RTT_4B_US};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// A small halo world: 8 ranks, 2 rounds (8 for the kill variant, whose
/// kills must land inside phase 1), 2 kills.
fn small(w: Workload) -> Params {
    Params {
        ranks: 8,
        rounds: if w == Workload::Kill256 { 8 } else { 2 },
        kills: 2,
        pp_sizes: vec![4, 4 << 20],
        pp_iters: 0,
        ..Params::full(w)
    }
}

#[test]
fn args_parse_and_reject() {
    let a = parse_args(&argv("--workload kill256 --seed 9 --seconds 1.5 --trace 1")).unwrap();
    assert_eq!(a.workload, Workload::Kill256);
    assert_eq!((a.seed, a.seconds, a.trace), (9, 1.5, true));
    assert_eq!(a.iteration, None);
    let a = parse_args(&argv(
        "--workload halo256 --seed 1 --seconds 0 --trace 0 --iteration traced",
    ));
    assert_eq!(a.unwrap().iteration, Some(Kind::Traced));
    for bad in [
        "--workload halo --seed 1 --seconds 1 --trace 0",
        "--workload halo256 --seed -1 --seconds 1 --trace 0",
        "--workload halo256 --seed 1 --seconds 1 --trace 2",
        "--workload halo256 --seed 1 --seconds 1",
        "--workload halo256 --seed 1 --seconds 1 --trace 0 --bogus 1",
        "--workload halo256 --seed 1 --seconds 1 --trace",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}

#[test]
fn sample_encoding_round_trips() {
    let mut s = Sample::failed("rank 3: corrupt\npayload".into());
    s.run.wall_s = 1.0 / 3.0;
    s.run.usage.vcsw = 123_456;
    s.vt_ns = 1_422_583_000;
    s.fingerprint = u64::MAX - 7;
    s.peak_rss_mb = 1082.43359375;
    s.values.insert("cp.wire_vns".into(), 22400.0);
    let back = Sample::decode(&s.encode()).unwrap();
    assert_eq!(back.run, s.run);
    assert_eq!((back.vt_ns, back.fingerprint), (s.vt_ns, s.fingerprint));
    assert_eq!(back.peak_rss_mb, s.peak_rss_mb);
    assert_eq!(back.values, s.values);
    assert_eq!(back.violations, vec!["rank 3: corrupt payload".to_string()]);
    assert!(Sample::decode("f run.wall_s x").is_err());
    assert!(Sample::decode("q a 1").is_err());
}

/// Every metric name, unit and direction the benchmark prints matches
/// `BENCHMARK.json`, which lists exactly these metrics and workloads.
#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let flat: String = text.split_whitespace().collect();
    let defs = END_TO_END.iter().chain(PER_LAYER.iter());
    for d in defs.clone() {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            d.name, d.unit, d.better
        );
        assert_eq!(flat.matches(&entry).count(), 1, "{entry} in BENCHMARK.json");
    }
    for w in Workload::ALL {
        assert!(
            flat.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())),
            "{w:?}"
        );
    }
    let names = flat.matches("\"name\":").count();
    assert_eq!(
        names,
        defs.count() + Workload::ALL.len(),
        "no metric beyond the catalogue"
    );
    let mut seen = std::collections::BTreeSet::new();
    assert!(END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .all(|d| seen.insert(d.name)));
}

#[test]
fn result_line_has_the_documented_schema() {
    let figs: BTreeMap<&str, Figure> = END_TO_END
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let f = Figure {
                value: 0.5 + i as f64,
                spread: 0.0,
                n: 3,
            };
            (d.name, f)
        })
        .collect();
    let line = report::result_json(true, 10, 0, &END_TO_END, &figs);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
    );
    assert!(line.ends_with("}}}"));
    assert_eq!(line.matches("\"value\": ").count(), END_TO_END.len());
    assert!(line.contains("\"run_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    assert!(line.contains("\"vt_us\": {\"value\": 4.5, \"unit\": \"vus\"}"));
    let failed = report::result_json(false, 10, 2, &END_TO_END, &figs);
    assert_eq!(
        failed,
        "{\"correct\": false, \"attempted\": 10, \"failed\": 2, \"metrics\": {}}"
    );
    let defs: &[Def] = &PER_LAYER;
    let line = report::result_json(true, 1, 0, defs, &BTreeMap::new());
    assert_eq!(line.matches("{\"value\": 0.0, ").count(), PER_LAYER.len());
}

#[test]
fn determinism_gate_compares_fingerprints() {
    let sample = |fingerprint, vt_ns| {
        let mut s = Sample::default();
        s.fingerprint = fingerprint;
        s.vt_ns = vt_ns;
        s
    };
    let (a, b, c) = (sample(1, 10), sample(1, 10), sample(2, 10));
    assert!(report::determinism_violations(&[&a, &b]).is_empty());
    assert_eq!(report::determinism_violations(&[&a, &b, &c]).len(), 1);
    assert_eq!(report::determinism_violations(&[]).len(), 1);
}

#[test]
fn recorded_fingerprint_must_repeat() {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/out/test-fingerprints"
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    assert_eq!(
        check_recorded_fingerprint(&dir, Workload::Halo256, 5, 0xabc),
        None
    );
    assert_eq!(
        check_recorded_fingerprint(&dir, Workload::Halo256, 5, 0xabc),
        None
    );
    assert!(check_recorded_fingerprint(&dir, Workload::Halo256, 5, 0xabd).is_some());
    assert_eq!(
        check_recorded_fingerprint(&dir, Workload::Halo256, 6, 0xabd),
        None
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reference_gate_pins_the_paper_figures() {
    assert!(reference_violations(13.097333333333333, FIG8_BW_4MIB_GBS).is_empty());
    assert_eq!(reference_violations(FIG9_RTT_4B_US, 2.7859).len(), 1);
    assert_eq!(reference_violations(15.0, FIG8_BW_4MIB_GBS).len(), 1);
    assert_eq!(reference_violations(f64::NAN, f64::NAN).len(), 2);
}

#[test]
fn split_gate_fires_on_unattributed_cpu() {
    let mut s = Sample::default();
    s.run.process_cpu_s = 1.0;
    s.run.thread_cpu_s = 0.1;
    s.rank_thread_cpu_s = 0.8;
    s.daemon_cpu_s = 0.07;
    assert_eq!(report::split_violation(&s), None);
    s.daemon_cpu_s = 0.0;
    assert!(report::split_violation(&s).is_some());
}

#[test]
fn payloads_and_kill_schedules_follow_the_seed() {
    assert_eq!(
        workload::payload(1, 2, 3, 64),
        workload::payload(1, 2, 3, 64)
    );
    assert_ne!(
        workload::payload(1, 2, 3, 64),
        workload::payload(2, 2, 3, 64)
    );
    let k = workload::kill_schedule(7, 256, 6, 65);
    assert_eq!(k, workload::kill_schedule(7, 256, 6, 65));
    assert_ne!(k, workload::kill_schedule(8, 256, 6, 65));
    assert_eq!(k.len(), 6);
    for s in &k {
        assert!(s.rank < 256 && (32..=39).contains(&s.after_ops), "{s:?}");
        assert_eq!(k.iter().filter(|o| o.rank == s.rank).count(), 1);
    }
}

#[test]
fn halo_smoke_passes_and_repeats_bit_for_bit() {
    let p = small(Workload::Halo256);
    let a = workload::run(Workload::Halo256, 3, &p, Mode::plain(Workload::Halo256));
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.attempted, 8 * 2 * 8);
    assert_eq!(a.failed, 0);
    assert!(a.vt_ns > 0 && a.events > 0 && a.run.wall_s > 0.0);
    // The traced configuration sees the same virtual run and records
    // spans for every layer boundary.
    let b = workload::run(Workload::Halo256, 3, &p, Mode::traced());
    assert!(b.violations.is_empty(), "{:?}", b.violations);
    assert!(report::determinism_violations(&[&a, &b]).is_empty());
    for name in [
        "Simulation::new",
        "Cluster::new",
        "launch",
        "Simulation::run",
        "isend",
        "wait",
    ] {
        assert!(b.spans.iter().any(|s| s.name == name), "no {name} span");
    }
    let run = b
        .spans
        .iter()
        .position(|s| s.name == "Simulation::run")
        .unwrap();
    assert!(b
        .spans
        .iter()
        .any(|s| s.name == "body" && s.parent == Some(run)));
    assert!(b.value("engine.eager_sends") > 0.0 && b.value("trace.records") > 0.0);
    let spans = report::span_values(&b.spans);
    assert!(spans
        .iter()
        .any(|(k, v)| k == "engine.isend_cpu_ns_p50" && *v > 0.0));
}

#[test]
fn halo_gates_catch_corruption_ring_drops_and_stranded_requests() {
    let p = Params {
        corrupt: true,
        ..small(Workload::Halo256)
    };
    let s = workload::run(Workload::Halo256, 3, &p, Mode::plain(Workload::Halo256));
    assert!(
        s.violations
            .iter()
            .any(|v| v.contains("corrupted payloads")),
        "{:?}",
        s.violations
    );
    assert_eq!(s.failed, 1);

    let p = Params {
        ring_cap: Some(64),
        ..small(Workload::Halo256)
    };
    let s = workload::run(Workload::Halo256, 3, &p, Mode::plain(Workload::Halo256));
    assert!(
        s.violations
            .iter()
            .any(|v| v.contains("trace ring dropped")),
        "{:?}",
        s.violations
    );

    let p = Params {
        strand_request: true,
        ..small(Workload::Halo256)
    };
    let s = workload::run(Workload::Halo256, 3, &p, Mode::plain(Workload::Halo256));
    assert!(
        s.violations.iter().any(|v| v.contains("requests stranded")),
        "{:?}",
        s.violations
    );
}

#[test]
fn kill_smoke_recovers_and_gates_fire() {
    let p = small(Workload::Kill256);
    let a = workload::run(Workload::Kill256, 4, &p, Mode::plain(Workload::Kill256));
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert!(a.expected_errors > 0 && a.value("ops_failed_share") > 0.0);
    assert!(a.value("recovery_us") > 0.0 && a.value("fabric.detect_p99_vus") > 0.0);
    let b = workload::run(Workload::Kill256, 4, &p, Mode::traced());
    assert!(b.violations.is_empty(), "{:?}", b.violations);
    assert!(report::determinism_violations(&[&a, &b]).is_empty());
    let spans = report::span_values(&b.spans);
    assert!(spans
        .iter()
        .any(|(k, v)| k == "engine.shrink_cpu_us" && *v > 0.0));
    // Another seed kills other ranks: another run.
    let c = workload::run(Workload::Kill256, 5, &p, Mode::plain(Workload::Kill256));
    assert_ne!(a.fingerprint, c.fingerprint);

    let p = Params {
        corrupt: true,
        ..small(Workload::Kill256)
    };
    let s = workload::run(Workload::Kill256, 4, &p, Mode::plain(Workload::Kill256));
    assert!(
        s.violations
            .iter()
            .any(|v| v.contains("corrupted payloads")),
        "{:?}",
        s.violations
    );
}

#[test]
fn pingpong_smoke_reproduces_the_figures_and_catches_corruption() {
    let p = small(Workload::Pingpong);
    let s = workload::run(Workload::Pingpong, 1, &p, Mode::plain(Workload::Pingpong));
    assert!(s.violations.is_empty(), "{:?}", s.violations);
    assert_eq!(s.value("bw_4mib_gbs"), FIG8_BW_4MIB_GBS);
    assert!((s.value("rtt_4b_us") - FIG9_RTT_4B_US).abs() < 0.05);
    assert!(s.value("engine.rndv_sends") > 0.0 && s.value("fabric.copy_ns_per_kib") > 0.0);

    let p = Params {
        corrupt: true,
        ..small(Workload::Pingpong)
    };
    let s = workload::run(Workload::Pingpong, 1, &p, Mode::plain(Workload::Pingpong));
    assert!(
        s.violations.iter().any(|v| v.contains("corrupt payload")),
        "{:?}",
        s.violations
    );
}
