//! The machine-readable performance report behind `repro --metrics-json`
//! and the regression gate behind `repro --compare-metrics`.
//!
//! # Schema versioning
//!
//! Every report carries `"schema": "dcfa-mpi-metrics/1"`. The comparator
//! refuses to diff reports with different schema ids. Additive changes
//! (new counters, new phases) keep the version; renaming or re-meaning a
//! field bumps it — see DESIGN.md §13.
//!
//! # Comparison semantics
//!
//! The gate is a *symmetric drift* check: for each per-phase p99 and for
//! the aggregate bandwidth, `|current - baseline| / baseline` must stay
//! within the tolerance. Regressions beyond tolerance fail for the obvious
//! reason; improvements beyond tolerance also fail, because they mean the
//! checked-in baseline no longer describes the code and must be refreshed
//! (otherwise it would mask a later regression of the same magnitude).

use std::fmt::Write as _;

use dcfa_mpi::{HistogramSnapshot, MpiConfig, Phase};

use crate::json::{self, JsonValue};
use crate::stitch;
use crate::Outcome;

/// Schema identifier stamped into (and required of) every report.
pub const METRICS_SCHEMA: &str = "dcfa-mpi-metrics/1";

fn push_kv_num(out: &mut String, key: &str, v: f64) {
    json::write_str(out, key);
    out.push(':');
    json::write_num(out, v);
}

fn push_hist_fields(out: &mut String, s: &HistogramSnapshot) {
    push_kv_num(out, "count", s.count as f64);
    out.push(',');
    push_kv_num(out, "sum_ns", s.sum as f64);
    out.push(',');
    push_kv_num(out, "min_ns", if s.is_empty() { 0.0 } else { s.min as f64 });
    out.push(',');
    push_kv_num(out, "max_ns", s.max as f64);
    out.push(',');
    push_kv_num(out, "mean_ns", s.mean());
    out.push(',');
    push_kv_num(out, "p50_ns", s.p50());
    out.push(',');
    push_kv_num(out, "p90_ns", s.p90());
    out.push(',');
    push_kv_num(out, "p99_ns", s.p99());
}

/// Serialize the run's metrics as a versioned JSON report: config
/// fingerprint, aggregated counters, derived bandwidth, per-phase
/// roll-ups with percentiles, and the full per-(phase, size-class, peer)
/// histograms with sparse bucket lists.
pub fn metrics_report_json(run: &Outcome) -> String {
    let cfg: &MpiConfig = &run.cfg;
    let mut out = String::with_capacity(16 << 10);
    out.push_str("{\n");
    let _ = writeln!(out, "\"schema\":\"{METRICS_SCHEMA}\",");

    // Config fingerprint: every knob that shapes the latency distributions.
    out.push_str("\"config\":{");
    let _ = write!(out, "\"ranks\":{},", run.ranks());
    let _ = write!(out, "\"placement\":\"{:?}\",", cfg.placement);
    let _ = write!(out, "\"eager_threshold\":{},", cfg.eager_threshold);
    match cfg.offload_threshold {
        Some(t) => {
            let _ = write!(out, "\"offload_threshold\":{t},");
        }
        None => out.push_str("\"offload_threshold\":null,"),
    }
    let _ = write!(out, "\"mr_cache_capacity\":{},", cfg.mr_cache_capacity);
    let _ = write!(out, "\"ring_slots\":{},", cfg.ring_slots);
    let _ = write!(out, "\"ring_slot_payload\":{},", cfg.ring_slot_payload);
    match cfg.srq_depth {
        Some(d) => {
            let _ = write!(out, "\"srq_depth\":{d}");
        }
        None => out.push_str("\"srq_depth\":null"),
    }
    out.push_str("},\n");

    let _ = writeln!(out, "\"elapsed_ns\":{},", run.elapsed_ns);

    // Wall-clock throughput of the simulator itself. These depend on the
    // machine that ran the report, so the comparator gates them as floors
    // (see `throughput_floor`), never as symmetric drift.
    let wall_secs = run.wall_ns as f64 / 1e9;
    let events_per_sec = if run.wall_ns == 0 {
        0.0
    } else {
        run.sim_events as f64 / wall_secs
    };
    let mpi_ops = run.mpi_ops();
    let ops_per_sec = if run.wall_ns == 0 {
        0.0
    } else {
        mpi_ops as f64 / wall_secs
    };
    out.push_str("\"wall\":{");
    let _ = write!(
        out,
        "\"wall_ns\":{},\"sim_events\":{},\"mpi_ops\":{},",
        run.wall_ns, run.sim_events, mpi_ops
    );
    push_kv_num(&mut out, "events_per_sec", events_per_sec);
    out.push(',');
    push_kv_num(&mut out, "ops_per_sec", ops_per_sec);
    out.push_str("},\n");

    // Counters aggregated across ranks.
    let mut bytes_sent = 0u64;
    let mut bytes_received = 0u64;
    let mut eager_sends = 0u64;
    let mut rndv_sends = 0u64;
    let mut offload_syncs = 0u64;
    let mut packets = 0u64;
    let mut mr_hits = 0u64;
    let mut mr_misses = 0u64;
    for r in run.reports() {
        bytes_sent += r.comm.bytes_sent;
        bytes_received += r.comm.bytes_received;
        eager_sends += r.comm.eager_sends;
        rndv_sends += r.comm.rndv_sends;
        offload_syncs += r.comm.offload_syncs;
        packets += r.comm.packets_processed;
        mr_hits += r.mr_cache.hits;
        mr_misses += r.mr_cache.misses;
    }
    out.push_str("\"counters\":{");
    let _ = write!(
        out,
        "\"bytes_sent\":{bytes_sent},\"bytes_received\":{bytes_received},\
         \"eager_sends\":{eager_sends},\"rndv_sends\":{rndv_sends},\
         \"offload_syncs\":{offload_syncs},\"packets_processed\":{packets},\
         \"mr_cache_hits\":{mr_hits},\"mr_cache_misses\":{mr_misses}"
    );
    out.push_str("},\n");

    // Scale counters: how many QP pairs lazy connection establishment
    // actually touched, the per-rank communication-buffer footprint, and
    // the SRQ pool's peak occupancy (0 on the per-pair ring path).
    out.push_str("\"scale\":{");
    let _ = write!(
        out,
        "\"ranks\":{},\"established_pairs\":{},\"bytes_per_rank\":{},\"srq_highwater\":{}",
        run.ranks(),
        run.established_pairs(),
        run.bytes_per_rank(),
        run.srq_highwater()
    );
    out.push_str("},\n");

    // Failure-plane counters, present only when the run had the failure
    // subsystem armed (kill soaks). Additive: readers of failure-less
    // reports are unaffected, so the schema version stays.
    if let Some(f) = &run.failures {
        out.push_str("\"failures\":{");
        let _ = write!(
            out,
            "\"kills\":{},\"detections\":{},\"detection_latency_p99_ns\":{},\
             \"revokes\":{},\"shrinks\":{},\"reclaimed\":{}",
            f.kills, f.detections, f.detection_latency_p99_ns, f.revokes, f.shrinks, f.reclaimed
        );
        out.push_str("},\n");
    }

    // Critical path of the traced run (additive, like `failures`): the
    // heaviest causal chain through the stitched message-lifecycle DAG,
    // split by edge kind. Virtual-time, hence deterministic — the
    // comparator gates it at the drift tolerance when both sides have it.
    if let Some(cp) = stitch::critical_path(&run.events) {
        out.push_str("\"critical_path\":{");
        let _ = write!(out, "\"total_ns\":{},\"edges\":{}", cp.total_ns, cp.edges);
        for (kind, ns) in &cp.breakdown {
            let _ = write!(out, ",\"{kind}_ns\":{ns}");
        }
        out.push_str("},\n");
    }

    // Aggregate payload bandwidth over the run's virtual lifetime.
    let bw_gbs = if run.elapsed_ns == 0 {
        0.0
    } else {
        bytes_sent as f64 / run.elapsed_ns as f64 // B/ns == GB/s
    };
    out.push_str("\"bandwidth_gbs\":");
    json::write_num(&mut out, bw_gbs);
    out.push_str(",\n");

    // Per-phase roll-ups (all size classes and peers merged).
    out.push_str("\"phases\":[\n");
    let phases = run.metrics.merged_by_phase();
    for (i, (phase, snap)) in phases.iter().enumerate() {
        out.push_str("  {");
        let _ = write!(out, "\"phase\":\"{}\",", phase.name());
        push_hist_fields(&mut out, snap);
        out.push('}');
        if i + 1 < phases.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n");

    // Full histograms, keyed and with sparse (bucket, count) pairs.
    out.push_str("\"histograms\":[\n");
    let hists = run.metrics.snapshot();
    for (i, (key, snap)) in hists.iter().enumerate() {
        out.push_str("  {");
        let _ = write!(
            out,
            "\"phase\":\"{}\",\"size_class\":{},",
            key.phase.name(),
            key.size_class
        );
        match key.peer {
            Some(p) => {
                let _ = write!(out, "\"peer\":{p},");
            }
            None => out.push_str("\"peer\":null,"),
        }
        push_hist_fields(&mut out, snap);
        out.push_str(",\"buckets\":[");
        let mut first = true;
        for (b, &c) in snap.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{b},{c}]");
        }
        out.push_str("]}");
        if i + 1 < hists.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

fn phase_p99s(doc: &JsonValue) -> Result<Vec<(String, f64)>, String> {
    let phases = doc
        .get("phases")
        .and_then(JsonValue::as_arr)
        .ok_or("report has no \"phases\" array")?;
    let mut out = Vec::new();
    for p in phases {
        let name = p
            .get("phase")
            .and_then(JsonValue::as_str)
            .ok_or("phase entry without a \"phase\" name")?;
        if Phase::parse(name).is_none() {
            return Err(format!("unknown phase {name:?} in report"));
        }
        let p99 = p
            .get("p99_ns")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("phase {name} has no numeric p99_ns"))?;
        out.push((name.to_string(), p99));
    }
    Ok(out)
}

fn drift_pct(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cur - base).abs() / base * 100.0
    }
}

/// Additive report sections (each may be absent from old reports) and the
/// numeric keys the comparator gates inside them. Presence is asymmetric
/// by design — see [`compare_reports_full`].
const ADDITIVE_SECTIONS: &[(&str, &[&str])] = &[
    ("scale", &["established_pairs", "bytes_per_rank"]),
    (
        "failures",
        &[
            "kills",
            "detections",
            "detection_latency_p99_ns",
            "revokes",
            "shrinks",
            "reclaimed",
        ],
    ),
    (
        "critical_path",
        &[
            "total_ns",
            "edges",
            "wire_ns",
            "stash_dwell_ns",
            "credit_stall_ns",
            "daemon_ns",
            "rdma_ns",
            "host_copy_ns",
            "local_ns",
        ],
    ),
];

/// Diff two serialized reports under a symmetric drift tolerance (in
/// percent). See [`compare_reports_full`]; this wrapper drops the
/// warnings and returns only the gating violations.
pub fn compare_reports(
    baseline: &str,
    current: &str,
    tolerance_pct: f64,
) -> Result<Vec<String>, String> {
    compare_reports_full(baseline, current, tolerance_pct).map(|(v, _)| v)
}

/// Diff two serialized reports under a symmetric drift tolerance (in
/// percent). `Ok((violations, warnings))` — empty violations means the
/// gate passes; `Err` means one of the inputs could not be parsed or is
/// not a metrics report.
///
/// Additive sections (`scale`, `failures`, `critical_path`) gate
/// *asymmetrically*: present on both sides → per-key drift check; only in
/// the baseline → a warning (an old baseline must keep passing against a
/// candidate whose run type doesn't produce the section); only in the
/// candidate → a violation, because the baseline no longer describes what
/// the code emits and silently skipping would let the new section regress
/// unwatched forever (refresh the baseline instead).
pub fn compare_reports_full(
    baseline: &str,
    current: &str,
    tolerance_pct: f64,
) -> Result<(Vec<String>, Vec<String>), String> {
    let base = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = json::parse(current).map_err(|e| format!("current: {e}"))?;
    for (label, doc) in [("baseline", &base), ("current", &cur)] {
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(METRICS_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "{label}: schema {other:?} does not match {METRICS_SCHEMA:?}"
                ))
            }
            None => return Err(format!("{label}: not a metrics report (no schema)")),
        }
    }

    let mut violations = Vec::new();

    let base_bw = base
        .get("bandwidth_gbs")
        .and_then(JsonValue::as_f64)
        .ok_or("baseline: no numeric bandwidth_gbs")?;
    let cur_bw = cur
        .get("bandwidth_gbs")
        .and_then(JsonValue::as_f64)
        .ok_or("current: no numeric bandwidth_gbs")?;
    let bw_drift = drift_pct(base_bw, cur_bw);
    if bw_drift > tolerance_pct {
        violations.push(format!(
            "bandwidth_gbs drifted {bw_drift:.1}% ({base_bw:.4} -> {cur_bw:.4}), \
             tolerance {tolerance_pct}%"
        ));
    }

    let base_phases = phase_p99s(&base).map_err(|e| format!("baseline: {e}"))?;
    let cur_phases = phase_p99s(&cur).map_err(|e| format!("current: {e}"))?;
    for (name, base_p99) in &base_phases {
        match cur_phases.iter().find(|(n, _)| n == name) {
            None => violations.push(format!(
                "phase {name}: present in baseline but missing from current run"
            )),
            Some((_, cur_p99)) => {
                let d = drift_pct(*base_p99, *cur_p99);
                if d > tolerance_pct {
                    violations.push(format!(
                        "phase {name}: p99 drifted {d:.1}% ({base_p99:.0} ns -> {cur_p99:.0} ns), \
                         tolerance {tolerance_pct}%"
                    ));
                }
            }
        }
    }
    for (name, _) in &cur_phases {
        if !base_phases.iter().any(|(n, _)| n == name) {
            violations.push(format!(
                "phase {name}: new in current run, absent from baseline (refresh the baseline)"
            ));
        }
    }

    // Additive-section gates. All their metrics are deterministic in
    // virtual time (connection counts, failure-plane outcomes, critical
    // path), but stay under the symmetric drift tolerance so a deliberate
    // workload change only requires a baseline refresh, not a schema
    // bump. Presence is checked per the asymmetric rule in the doc
    // comment above.
    let mut warnings = Vec::new();
    for (section, keys) in ADDITIVE_SECTIONS {
        match (base.get(section), cur.get(section)) {
            (Some(bs), Some(cs)) => {
                for key in *keys {
                    let (Some(b), Some(c)) = (
                        bs.get(key).and_then(JsonValue::as_f64),
                        cs.get(key).and_then(JsonValue::as_f64),
                    ) else {
                        continue;
                    };
                    let d = drift_pct(b, c);
                    if d > tolerance_pct {
                        violations.push(format!(
                            "{section} {key} drifted {d:.1}% ({b:.0} -> {c:.0}), \
                             tolerance {tolerance_pct}%"
                        ));
                    }
                }
            }
            (Some(_), None) => warnings.push(format!(
                "{section}: present in baseline but not in current run — section not gated \
                 (expected when the run type doesn't produce it)"
            )),
            (None, Some(_)) => violations.push(format!(
                "{section}: new in current run, absent from baseline (refresh the baseline \
                 so the section is gated)"
            )),
            (None, None) => {}
        }
    }

    // Wall-clock throughput floors. Unlike the virtual-time gates above,
    // these are machine-dependent, so the baseline carries explicit floor
    // values (chosen with headroom for runner jitter) and the check is
    // one-sided: the current run may be arbitrarily faster, never slower
    // than the floor.
    if let Some(floor) = base.get("throughput_floor") {
        for key in ["events_per_sec", "ops_per_sec"] {
            let Some(min) = floor.get(key).and_then(JsonValue::as_f64) else {
                continue;
            };
            match cur
                .get("wall")
                .and_then(|w| w.get(key))
                .and_then(JsonValue::as_f64)
            {
                None => violations.push(format!(
                    "throughput floor: baseline requires {key} >= {min:.0} but the \
                     current report has no wall.{key}"
                )),
                Some(got) if got < min => violations.push(format!(
                    "throughput floor: {key} {got:.0} below the baseline floor {min:.0}"
                )),
                Some(_) => {}
            }
        }
    }
    Ok((violations, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(p99_scale: f64, bw: f64) -> String {
        format!(
            r#"{{
              "schema": "{METRICS_SCHEMA}",
              "bandwidth_gbs": {bw},
              "phases": [
                {{"phase": "Eager", "p99_ns": {}}},
                {{"phase": "RndvRead", "p99_ns": {}}}
              ]
            }}"#,
            4000.0 * p99_scale,
            90000.0 * p99_scale
        )
    }

    #[test]
    fn identical_reports_pass() {
        let r = fake_report(1.0, 1.5);
        assert_eq!(compare_reports(&r, &r, 0.0).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let v = compare_reports(&fake_report(1.0, 1.5), &fake_report(1.1, 1.4), 25.0).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn doubled_p99_fails() {
        let v = compare_reports(&fake_report(2.0, 1.5), &fake_report(1.0, 1.5), 25.0).unwrap();
        assert_eq!(v.len(), 2, "{v:?}"); // both phases drifted 50%
        assert!(v[0].contains("p99 drifted"), "{v:?}");
    }

    #[test]
    fn bandwidth_regression_fails() {
        let v = compare_reports(&fake_report(1.0, 2.0), &fake_report(1.0, 1.0), 25.0).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("bandwidth_gbs"), "{v:?}");
    }

    #[test]
    fn missing_and_new_phases_flagged() {
        let base = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        );
        let cur = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"RndvWrite","p99_ns":100}}]}}"#
        );
        let v = compare_reports(&base, &cur, 25.0).unwrap();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("missing from current")));
        assert!(v.iter().any(|m| m.contains("absent from baseline")));
    }

    #[test]
    fn missing_phase_alone_fails_even_when_shared_metrics_match() {
        // The dropped phase must be a violation in its own right, not
        // something that only surfaces via drift on surviving phases.
        let base = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}},
                          {{"phase":"RndvRead","p99_ns":200}}]}}"#
        );
        let cur = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        );
        let v = compare_reports(&base, &cur, 25.0).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("RndvRead"), "{v:?}");
        assert!(v[0].contains("missing from current"), "{v:?}");
    }

    fn report_with_wall(events_per_sec: f64) -> String {
        format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "wall":{{"wall_ns":1000,"sim_events":10,"mpi_ops":4,
                         "events_per_sec":{events_per_sec},"ops_per_sec":1.0}},
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        )
    }

    fn baseline_with_floor(floor: f64) -> String {
        format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "throughput_floor":{{"events_per_sec":{floor}}},
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        )
    }

    #[test]
    fn throughput_floor_is_one_sided() {
        // Below the floor: violation.
        let v = compare_reports(
            &baseline_with_floor(5000.0),
            &report_with_wall(4000.0),
            25.0,
        )
        .unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("below the baseline floor"), "{v:?}");
        // At or above the floor — even far above: no violation.
        for fast in [5000.0, 500_000.0] {
            let v = compare_reports(&baseline_with_floor(5000.0), &report_with_wall(fast), 25.0)
                .unwrap();
            assert!(v.is_empty(), "{v:?}");
        }
    }

    #[test]
    fn throughput_floor_requires_wall_section() {
        // A baseline that demands a floor fails a candidate without wall
        // metrics (it cannot prove its throughput).
        let cur = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        );
        let v = compare_reports(&baseline_with_floor(5000.0), &cur, 25.0).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no wall.events_per_sec"), "{v:?}");
        // No floor in the baseline: wall-less candidates stay compatible.
        let base = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        );
        assert!(compare_reports(&base, &cur, 25.0).unwrap().is_empty());
    }

    fn report_with_failures(detections: u64, latency_p99: u64) -> String {
        format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "failures":{{"kills":4,"detections":{detections},
                             "detection_latency_p99_ns":{latency_p99},
                             "revokes":60,"shrinks":1,"reclaimed":71}},
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        )
    }

    #[test]
    fn failure_counters_gate_when_present_on_both_sides() {
        // Identical failure planes pass even at zero tolerance.
        let r = report_with_failures(4, 7000);
        assert!(compare_reports(&r, &r, 0.0).unwrap().is_empty());
        // A missed detection (4 -> 3 = 25% drift) and a doubled detection
        // latency both violate.
        let v = compare_reports(
            &report_with_failures(4, 7000),
            &report_with_failures(3, 14000),
            20.0,
        )
        .unwrap();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("failures detections")), "{v:?}");
        assert!(
            v.iter()
                .any(|m| m.contains("failures detection_latency_p99_ns")),
            "{v:?}"
        );
    }

    fn report_without_sections() -> String {
        format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        )
    }

    fn report_with_section(section: &str, body: &str) -> String {
        format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "{section}":{{{body}}},
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        )
    }

    #[test]
    fn additive_section_only_in_baseline_warns_but_passes() {
        // An old baseline (with the section) against a run type that does
        // not produce it: the gate cannot bind, which is legitimate —
        // warn, don't fail. One direction test per additive section.
        for (section, body) in [
            ("scale", r#""established_pairs":6,"bytes_per_rank":1000"#),
            ("failures", r#""kills":4,"detections":4"#),
            (
                "critical_path",
                r#""total_ns":5000,"edges":12,"wire_ns":3000"#,
            ),
        ] {
            let with = report_with_section(section, body);
            let without = report_without_sections();
            let (v, w) = compare_reports_full(&with, &without, 0.0).unwrap();
            assert!(v.is_empty(), "{section}: {v:?}");
            assert_eq!(w.len(), 1, "{section}: {w:?}");
            assert!(w[0].contains(section), "{w:?}");
            assert!(w[0].contains("not gated"), "{w:?}");
            // The violations-only wrapper keeps passing.
            assert!(compare_reports(&with, &without, 0.0).unwrap().is_empty());
        }
    }

    #[test]
    fn additive_section_only_in_candidate_is_a_violation() {
        // The code grew a section the baseline has never seen: skipping
        // silently would leave it ungated forever, so this direction
        // demands a baseline refresh. One direction test per section.
        for (section, body) in [
            ("scale", r#""established_pairs":6,"bytes_per_rank":1000"#),
            ("failures", r#""kills":4,"detections":4"#),
            (
                "critical_path",
                r#""total_ns":5000,"edges":12,"wire_ns":3000"#,
            ),
        ] {
            let with = report_with_section(section, body);
            let without = report_without_sections();
            let (v, w) = compare_reports_full(&without, &with, 0.0).unwrap();
            assert_eq!(v.len(), 1, "{section}: {v:?}");
            assert!(v[0].contains(section), "{v:?}");
            assert!(v[0].contains("refresh the baseline"), "{v:?}");
            assert!(w.is_empty(), "{section}: {w:?}");
        }
    }

    #[test]
    fn critical_path_drift_gates_when_present_on_both_sides() {
        let base = report_with_section(
            "critical_path",
            r#""total_ns":10000,"edges":20,"wire_ns":6000,"stash_dwell_ns":1000"#,
        );
        assert!(compare_reports(&base, &base, 0.0).unwrap().is_empty());
        let cur = report_with_section(
            "critical_path",
            r#""total_ns":15000,"edges":20,"wire_ns":6000,"stash_dwell_ns":1000"#,
        );
        let v = compare_reports(&base, &cur, 25.0).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("critical_path total_ns drifted 50.0%"),
            "{v:?}"
        );
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let bad = r#"{"schema":"dcfa-mpi-metrics/0","bandwidth_gbs":1.0,"phases":[]}"#;
        assert!(compare_reports(bad, bad, 25.0).is_err());
        assert!(compare_reports("{", "{}", 25.0).is_err());
        assert!(compare_reports("{}", "{}", 25.0).is_err());
    }
}
