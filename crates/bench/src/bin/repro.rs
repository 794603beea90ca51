//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all            # everything (a few minutes in release mode)
//! repro table1         # server architecture (Table I analogue)
//! repro fig5           # RDMA-write bandwidth by direction
//! repro fig7 | fig8    # non-blocking RTT / bandwidth (offload buffer)
//! repro fig9           # DCFA-MPI vs Intel-MPI-on-Phi bandwidth
//! repro table2 fig10   # communication-only app
//! repro table3 fig11 fig12   # five-point stencil
//! repro --quick all    # reduced sweeps (for smoke testing)
//! repro --stats        # per-protocol counters of a traced 4-rank run
//! repro --trace        # tail of the protocol event ring + audit verdict
//! repro --faults SPEC [--srq]
//!                      # fault-soak the 4-rank run; SPEC is a comma list
//!                      # of <after>:<kind>[@<src>-><dst>] fault plans,
//!                      # e.g. "2:transient,9:fatal@0->1". --srq runs it
//!                      # on the shared-receive-queue pool (CI variant)
//! repro --daemon-faults SPEC
//!                      # control-plane chaos soak: crash/drop/delay the
//!                      # delegation daemons; SPEC is a comma list of
//!                      # <after>:<kind>[@<node>] plans, e.g.
//!                      # "6:crash,20:drop@1,35:delay"
//! repro --metrics-json PATH
//!                      # run the profiled 4-rank mixed workload and write
//!                      # the versioned JSON performance report to PATH
//! repro --compare-metrics BASELINE [--tolerance PCT]
//!                      # diff the current run against a saved report;
//!                      # exits 1 if p99/bandwidth drift beyond PCT
//!                      # (default 25), 2 if a report cannot be parsed
//! repro --ranks N [--no-srq]
//!                      # audited neighbor-halo fault soak at N ranks (one
//!                      # per node); SRQ receive pooling is on unless
//!                      # --no-srq. Gates: auditor OK, 0 corrupt payloads,
//!                      # established pairs O(ranks), per-rank buffer
//!                      # memory under a flat ceiling. Exits 1 on any
//!                      # violation.
//! repro --scale-curve PATH [--no-srq]
//!                      # sweep ranks 8/16/32/64, write the memory-per-rank
//!                      # curve to PATH as CSV, and gate sub-quadratic
//!                      # growth of pairs and buffer bytes
//! repro --kill SPEC [--ranks N] [--no-srq]
//!                      # rank-death soak at N ranks (default 64): SPEC is
//!                      # a comma list of <after_ops>:<rank> fail-stop
//!                      # kills, e.g. "10:7,25:31,40:12,55:50" (N >= 8,
//!                      # at least 4 survivors). Survivors
//!                      # must detect, revoke, shrink to the same world and
//!                      # complete a verified exchange on it; exits 1 on
//!                      # any violation. --metrics-json / --compare-metrics
//!                      # apply to this run's report (with its `failures`
//!                      # section) instead of the 4-rank profile
//! repro --chaos [--seed N] [--ranks N] [--no-srq]
//!                      # deterministic chaos fuzzing: sample a kill
//!                      # schedule from the seed, soak it twice (replay
//!                      # must be bit-for-bit identical), gate the outcome,
//!                      # and on a failure print the greedily shrunk
//!                      # minimal reproducer in --kill syntax
//! repro --trace-out PATH.json
//!                      # export the traced run as Chrome/Perfetto
//!                      # trace-event JSON (one track per rank, flow
//!                      # arrows along causal edges); self-validated
//!                      # against the trace-event schema before writing.
//!                      # Applies to the kill soak with --kill, else to
//!                      # the 4-rank mixed run
//! repro --explain-msg RANK:SEQ
//!                      # print the cross-rank causal timeline of every
//!                      # message sent by RANK with pair sequence SEQ
//!                      # (same run selection as --trace-out)
//! ```
//!
//! Every soak and report is one [`bench::Scenario`] executed by
//! [`bench::run`] and gated by [`bench::Outcome::healthy`]. A malformed
//! spec, an out-of-range scenario or an unknown `--flag` exits 2.

use bench::{
    ablation_eager_threshold, ablation_host_staged_bcast, ablation_mr_cache,
    ablation_offload_threshold, ablation_rndv_skew, fig10, fig11_fig12, fig5, fig7_fig8, fig9,
    fig9_small_rtt, print_series, write_series_csv, write_stencil_csv, Outcome, Scenario,
};
use fabric::ClusterConfig;

/// Flags that take a value (the next argument).
const VALUE_FLAGS: &[&str] = &[
    "--csv",
    "--faults",
    "--daemon-faults",
    "--metrics-json",
    "--compare-metrics",
    "--tolerance",
    "--ranks",
    "--scale-curve",
    "--kill",
    "--seed",
    "--trace-out",
    "--explain-msg",
];

/// Flags that stand alone.
const SWITCHES: &[&str] = &[
    "--quick", "--stats", "--trace", "--srq", "--no-srq", "--chaos",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(a) = args
        .iter()
        .filter(|a| a.starts_with("--"))
        .find(|a| !VALUE_FLAGS.contains(&a.as_str()) && !SWITCHES.contains(&a.as_str()))
    {
        eprintln!("unknown flag {a}");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    // `--csv DIR` additionally writes figN.csv data files into DIR.
    let csv_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(d) = &csv_dir {
        std::fs::create_dir_all(d).expect("cannot create csv dir");
    }
    // `--faults SPEC` runs the fault-injection soak instead of a sweep.
    let fault_spec: Option<&String> = args
        .iter()
        .position(|a| a == "--faults")
        .and_then(|i| args.get(i + 1));
    // `--daemon-faults SPEC` runs the control-plane chaos soak.
    let daemon_fault_spec: Option<&String> = args
        .iter()
        .position(|a| a == "--daemon-faults")
        .and_then(|i| args.get(i + 1));
    // `--metrics-json PATH` writes the versioned JSON performance report.
    let metrics_json: Option<&String> = args
        .iter()
        .position(|a| a == "--metrics-json")
        .and_then(|i| args.get(i + 1));
    // `--compare-metrics BASELINE` gates the current run against a saved
    // report, at `--tolerance PCT` (default 25%).
    let compare_metrics: Option<&String> = args
        .iter()
        .position(|a| a == "--compare-metrics")
        .and_then(|i| args.get(i + 1));
    let tolerance: f64 = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .map(|s| match s.parse::<f64>() {
            Ok(v) if v >= 0.0 => v,
            _ => {
                eprintln!("bad --tolerance {s:?}: expected a non-negative percentage");
                std::process::exit(2);
            }
        })
        .unwrap_or(25.0);
    let parse_count = |flag: &str| -> Option<usize> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|s| match s.parse::<usize>() {
                Ok(v) if v >= 1 => v,
                _ => {
                    eprintln!("bad {flag} {s:?}: expected a positive integer");
                    std::process::exit(2);
                }
            })
    };
    // `--ranks N [--no-srq]` runs the audited scale soak.
    let scale_ranks = parse_count("--ranks");
    let scale_srq = !args.iter().any(|a| a == "--no-srq");
    // `--srq` moves the 4-rank `--faults` soak onto the SRQ pool.
    let fault_srq = args.iter().any(|a| a == "--srq");
    // `--kill SPEC` runs the rank-death soak; `--chaos [--seed N]` the
    // deterministic chaos fuzzer. Both default to 64 ranks.
    let kill_spec: Option<&String> = args
        .iter()
        .position(|a| a == "--kill")
        .and_then(|i| args.get(i + 1));
    let chaos = args.iter().any(|a| a == "--chaos");
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|s| match s.parse::<u64>() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("bad --seed {s:?}: expected an unsigned integer");
                std::process::exit(2);
            }
        })
        .unwrap_or(1);
    // `--scale-curve PATH` sweeps rank counts and writes the memory curve.
    let scale_curve: Option<&String> = args
        .iter()
        .position(|a| a == "--scale-curve")
        .and_then(|i| args.get(i + 1));
    // `--trace-out PATH.json` exports the traced run as Perfetto
    // trace-event JSON; `--explain-msg RANK:SEQ` prints one message's
    // cross-rank causal timeline. Both apply to the kill soak when
    // `--kill` is given, otherwise to the 4-rank mixed run.
    let trace_out: Option<&String> = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1));
    let explain_msg: Option<(usize, u64)> = args
        .iter()
        .position(|a| a == "--explain-msg")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            let parsed = s
                .split_once(':')
                .and_then(|(r, q)| Some((r.trim().parse().ok()?, q.trim().parse().ok()?)));
            match parsed {
                Some(v) => v,
                None => {
                    eprintln!("bad --explain-msg {s:?}: expected <rank>:<seq>");
                    std::process::exit(2);
                }
            }
        });
    let mut skip_next = false;
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if VALUE_FLAGS.contains(&a.as_str()) {
                skip_next = true;
            }
            !a.starts_with("--")
        })
        .map(|s| s.as_str())
        .collect();
    let show_stats = args.iter().any(|a| a == "--stats");
    let show_trace = args.iter().any(|a| a == "--trace");
    // A bare `repro --stats` / `--trace` / `--faults` / `--daemon-faults`
    // / `--metrics-json` / `--compare-metrics` runs only that report, not
    // the full figure sweep.
    let all = wanted.contains(&"all")
        || (wanted.is_empty()
            && !show_stats
            && !show_trace
            && !chaos
            && fault_spec.is_none()
            && daemon_fault_spec.is_none()
            && metrics_json.is_none()
            && compare_metrics.is_none()
            && scale_ranks.is_none()
            && scale_curve.is_none()
            && kill_spec.is_none()
            && trace_out.is_none()
            && explain_msg.is_none());
    let want = |k: &str| all || wanted.contains(&k);

    let reports = Reports {
        json: metrics_json,
        baseline: compare_metrics,
        tolerance,
        trace_out,
        explain: explain_msg,
    };
    if let Some(spec) = kill_spec {
        kill_soak(spec, scale_ranks.unwrap_or(64), scale_srq, &reports);
    } else if let Some(ranks) = scale_ranks {
        // With `--chaos`, `--ranks` parameterizes the fuzzer instead.
        if !chaos {
            scale_soak(ranks, scale_srq);
        }
    }
    if chaos {
        chaos_fuzz(seed, scale_ranks.unwrap_or(64), scale_srq);
    }
    if let Some(path) = scale_curve {
        scale_curve_sweep(path, scale_srq);
    }
    if let Some(spec) = fault_spec {
        fault_soak(spec, fault_srq);
    }
    if let Some(spec) = daemon_fault_spec {
        daemon_fault_soak(spec);
    }
    // Without `--kill`, the reports attach to the traced 4-rank profile.
    if kill_spec.is_none()
        && (show_stats || show_trace || reports.trace_wanted() || reports.metrics_wanted())
    {
        profile(show_stats, show_trace, &reports);
    }

    let ccfg = ClusterConfig::paper();
    let max_pow = if quick { 18 } else { 22 }; // 256 KiB or 4 MiB sweeps
    let (sn, siters) = if quick { (258, 10) } else { (1282, 100) };

    if want("table1") {
        println!("== Table I: simulated server architecture ==");
        println!("{ccfg}");
    }

    if want("fig5") {
        let series = fig5(&ccfg, max_pow);
        print_series(
            "Figure 5: InfiniBand RDMA-write bandwidth by transfer direction",
            "GB/s",
            &series,
        );
        if let Some(d) = &csv_dir {
            write_series_csv(&d.join("fig5.csv"), &series).expect("csv write");
        }
    }

    if want("fig7") || want("fig8") {
        let (rtt, bw) = fig7_fig8(&ccfg, max_pow);
        if want("fig7") {
            print_series(
                "Figure 7: non-blocking inter-node RTT (MPI_Isend/MPI_Irecv)",
                "us",
                &rtt,
            );
            if let Some(d) = &csv_dir {
                write_series_csv(&d.join("fig7.csv"), &rtt).expect("csv write");
            }
        }
        if want("fig8") {
            print_series("Figure 8: non-blocking inter-node bandwidth", "GB/s", &bw);
            if let Some(d) = &csv_dir {
                write_series_csv(&d.join("fig8.csv"), &bw).expect("csv write");
            }
        }
    }

    if want("fig9") {
        let series = fig9(&ccfg, max_pow);
        print_series(
            "Figure 9: blocking ping-pong bandwidth, DCFA-MPI vs Intel MPI on Xeon Phi",
            "GB/s",
            &series,
        );
        let (d, i) = fig9_small_rtt(&ccfg);
        println!("4-byte blocking RTT: DCFA-MPI {d:.1} us (paper: 15), Intel-MPI-on-Phi {i:.1} us (paper: 28)");
        if let Some(dir) = &csv_dir {
            write_series_csv(&dir.join("fig9.csv"), &series).expect("csv write");
        }
    }

    if want("table2") {
        println!("\n== Table II: communication-only data volume per iteration ==");
        println!("{:>12} | {:<40}", "Data size", "X bytes");
        println!(
            "{:>12} | {:<40}",
            "Offloading", "Copy In X + Copy Out X (offload mode only)"
        );
        println!("{:>12} | {:<40}", "MPI", "Send X + Receive X");
    }

    if want("fig10") {
        let series = fig10(&ccfg, max_pow);
        print_series(
            "Figure 10: communication-only app, per-iteration time",
            "us",
            &series,
        );
        if let Some(dir) = &csv_dir {
            write_series_csv(&dir.join("fig10.csv"), &series).expect("csv write");
        }
        if let (Some(d), Some(o)) = (series.first(), series.get(1)) {
            let first = o.points[0].1 / d.points[0].1;
            let last = o.points.last().unwrap().1 / d.points.last().unwrap().1;
            println!("speed-up of DCFA-MPI: {first:.1}x at {}B (paper: ~12x) .. {last:.1}x at {}B (paper: ~2x)",
                d.points[0].0, d.points.last().unwrap().0);
        }
    }

    if want("table3") {
        let p = apps::StencilParams::paper(8, 56);
        println!(
            "\n== Table III: five-point stencil data sizes (n = {}) ==",
            p.n
        );
        println!("{:>22} | {:>12}", "Problem size", format!("{0} x {0}", p.n));
        println!(
            "{:>22} | {:>12}",
            "Computing data",
            format!("{:.1} MB", p.grid_bytes() as f64 / 1e6)
        );
        println!(
            "{:>22} | {:>12}",
            "Offloading data",
            format!("2 x {:.1} KB", p.halo_bytes() as f64 / 1e3)
        );
        println!(
            "{:>22} | {:>12}",
            "MPI data",
            format!("2 x {:.1} KB", p.halo_bytes() as f64 / 1e3)
        );
    }

    if want("fig11") || want("fig12") {
        let procs: &[usize] = &[1, 2, 4, 8];
        let threads: &[u32] = if quick {
            &[1, 8, 56]
        } else {
            &[1, 4, 8, 16, 28, 56]
        };
        let (serial_us, cells) = fig11_fig12(&ccfg, sn, siters, procs, threads);
        println!(
            "\n== Figures 11/12: five-point stencil, n = {sn}, {siters} iterations (serial: {:.1} us/iter) ==",
            serial_us
        );
        println!(
            "{:>30} {:>6} {:>8} {:>14} {:>10}",
            "runtime", "procs", "threads", "us/iter", "speedup"
        );
        for c in &cells {
            println!(
                "{:>30} {:>6} {:>8} {:>14.1} {:>10.1}",
                c.runtime, c.procs, c.threads, c.iter_us, c.speedup_vs_serial
            );
        }
        // Headline numbers (paper: 117x / 113x / 74x at 8 procs x 56 threads).
        let headline: Vec<_> = cells
            .iter()
            .filter(|c| c.procs == 8 && c.threads == *threads.last().unwrap())
            .collect();
        println!(
            "\nheadline @ 8 procs x {} threads:",
            threads.last().unwrap()
        );
        for c in headline {
            println!("  {:<30} {:>7.1}x", c.runtime, c.speedup_vs_serial);
        }
        if let Some(dir) = &csv_dir {
            write_stencil_csv(&dir.join("fig11_12.csv"), &cells).expect("csv write");
        }
    }

    if want("ablations") {
        println!("\n== Ablations (design choices, DESIGN.md §6) ==");
        println!("offloading-send-buffer threshold sweep @256 KiB message (RTT us):");
        for (thr, us) in ablation_offload_threshold(&ccfg, 256 << 10) {
            let label = if thr == u64::MAX {
                "off".to_string()
            } else {
                format!("{}K", thr >> 10)
            };
            println!("  threshold {label:>5}: {us:>10.1} us");
        }
        let (with_us, without_us) = ablation_mr_cache(&ccfg, 1 << 20);
        println!("MR cache pool @1 MiB rendezvous: with {with_us:.1} us, without {without_us:.1} us ({:.2}x)",
            without_us / with_us);
        println!("eager-threshold sweep @8 KiB message (RTT us):");
        for (thr, us) in ablation_eager_threshold(&ccfg, 8 << 10) {
            println!("  eager <= {:>4}K: {us:>10.1} us", thr >> 10);
        }
        let (rf, sf) = ablation_rndv_skew(&ccfg, 512 << 10);
        println!("rendezvous skew @512 KiB: receiver-first {rf:.1} us, sender-first {sf:.1} us");
        let (plain, staged) = ablation_host_staged_bcast(&ccfg, 2 << 20);
        println!("host-staged bcast @2 MiB x 8 ranks (future work §VI): plain {plain:.1} us, staged {staged:.1} us ({:.2}x)",
            plain / staged);
    }
}

/// The transient link faults every scale soak runs under: enough churn to
/// exercise retry and reorder handling at rank counts the 4-rank suites
/// never reach, but nothing fatal — every operation must still succeed.
const SCALE_FAULT_SPEC: &str = "7:transient,23:retry,61:transient";

/// The per-run exports a soak or the profile feeds: `--metrics-json`,
/// `--compare-metrics [--tolerance]`, `--trace-out` and `--explain-msg`.
struct Reports<'a> {
    json: Option<&'a String>,
    baseline: Option<&'a String>,
    tolerance: f64,
    trace_out: Option<&'a String>,
    explain: Option<(usize, u64)>,
}

impl Reports<'_> {
    fn metrics_wanted(&self) -> bool {
        self.json.is_some() || self.baseline.is_some()
    }

    fn trace_wanted(&self) -> bool {
        self.trace_out.is_some() || self.explain.is_some()
    }

    /// `--trace-out` / `--explain-msg`: export the run's trace as
    /// Perfetto JSON and print one message's cross-rank causal timeline.
    fn trace(&self, events: &[dcfa_mpi::TraceEvent]) {
        if let Some(path) = self.trace_out {
            write_trace_json(path, events);
        }
        if let Some((rank, seq)) = self.explain {
            print!("{}", bench::stitch::explain_msg(events, rank, seq));
        }
    }

    /// `--metrics-json` / `--compare-metrics`: serialize the run's
    /// versioned JSON report, write it, and gate it against a saved
    /// baseline. `note` trails the written-to line. Returns false when a
    /// metric drifted beyond tolerance; exits 2 when a report cannot be
    /// written, read or parsed.
    fn metrics(&self, out: &Outcome, note: &str) -> bool {
        let report = bench::metrics_report_json(out);
        if let Some(path) = self.json {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("metrics report written to {path}{note}");
        }
        let Some(path) = self.baseline else {
            return true;
        };
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let tolerance = self.tolerance;
        match bench::compare_reports_full(&baseline, &report, tolerance) {
            Err(e) => {
                eprintln!("compare failed: {e}");
                std::process::exit(2);
            }
            Ok((violations, warnings)) => {
                for w in &warnings {
                    println!("warning: {w}");
                }
                if violations.is_empty() {
                    println!("metrics within {tolerance}% of baseline {path}");
                    return true;
                }
                println!(
                    "{} metric(s) drifted beyond {tolerance}% of baseline {path}:",
                    violations.len()
                );
                for v in &violations {
                    println!("  {v}");
                }
                false
            }
        }
    }
}

/// Print the auditor verdict; on violations also the trace tail, for
/// diagnosis.
fn print_audit(out: &Outcome) {
    match &out.audit {
        Ok(report) => println!("auditor: OK — {report:?}"),
        Err(errors) => {
            println!("auditor: {} invariant violations", errors.len());
            const TAIL: usize = 60;
            let skip = out.events.len().saturating_sub(TAIL);
            println!(
                "trace tail ({} of {} events):",
                out.events.len() - skip,
                out.events.len()
            );
            for ev in &out.events[skip..] {
                println!("  {ev:?}");
            }
        }
    }
}

/// Print every gate violation of the run; returns whether it is healthy.
fn gate(out: &Outcome) -> bool {
    match out.healthy() {
        Ok(()) => true,
        Err(violations) => {
            for v in &violations {
                println!("FAIL: {v}");
            }
            false
        }
    }
}

/// Build a scenario, or exit 2 with the reason it is out of range.
fn scenario(what: &str, sc: Result<Scenario, String>) -> Scenario {
    sc.unwrap_or_else(|e| {
        eprintln!("bad {what}: {e}");
        std::process::exit(2);
    })
}

fn on_off(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// `--ranks N [--no-srq]`: the audited neighbor-halo fault soak at scale.
/// Prints the scale counters and exits 1 on any gate violation: auditor
/// objection, corrupted payload, failed operation, connections past the
/// touched O(ranks) neighbor set, or per-rank buffer memory past its flat
/// ceiling.
fn scale_soak(ranks: usize, srq: bool) {
    let faults = fabric::parse_fault_spec(SCALE_FAULT_SPEC).expect("builtin fault spec");
    println!(
        "== scale soak: {ranks} ranks, SRQ {}, {} transient fault plan(s) ==",
        on_off(srq),
        faults.len()
    );
    let out = bench::run(&scenario(
        "--ranks",
        Scenario::halo(ranks, srq, faults, Vec::new()),
    ));
    println!(
        "virtual time {:.1} ms | wall {:.1} ms | {} events",
        out.elapsed_ns as f64 / 1e6,
        out.wall_ns as f64 / 1e6,
        out.sim_events
    );
    println!(
        "operations: {} completed, {} failed, {} corrupted payloads",
        out.tally.ok, out.tally.failed, out.tally.corrupt
    );
    println!(
        "pairs established: {} total, {} max per rank (full mesh would be {})",
        out.established_pairs(),
        out.max_pairs_per_rank(),
        ranks as u64 * (ranks as u64 - 1)
    );
    println!(
        "comm buffer bytes per rank: {} max allocated, {} resident | srq pool high-water: {} slot(s)",
        out.bytes_per_rank(),
        out.resident_bytes_per_rank(),
        out.srq_highwater()
    );
    print_audit(&out);
    if !gate(&out) {
        std::process::exit(1);
    }
    println!();
}

/// `--scale-curve PATH`: sweep the soak over ranks 8/16/32/64, write the
/// per-rank memory and connection curve as CSV, and gate sub-quadratic
/// growth: connections scale linearly with ranks and per-rank buffer bytes
/// stay flat. Exits 1 on a violation (including any per-run gate).
fn scale_curve_sweep(path: &str, srq: bool) {
    let faults = fabric::parse_fault_spec(SCALE_FAULT_SPEC).expect("builtin fault spec");
    let sweep = [8usize, 16, 32, 64];
    let mut rows = Vec::new();
    println!("== scale curve: ranks {sweep:?}, SRQ {} ==", on_off(srq));
    for &ranks in &sweep {
        let out = bench::run(&scenario(
            "--scale-curve",
            Scenario::halo(ranks, srq, faults.clone(), Vec::new()),
        ));
        let audit_ok = out.audit.is_ok() && out.dropped == 0;
        println!(
            "ranks {ranks:>4}: {:>6} pairs, {:>9} B/rank, srq high-water {:>3}, audit {}",
            out.established_pairs(),
            out.bytes_per_rank(),
            out.srq_highwater(),
            if audit_ok { "OK" } else { "FAIL" }
        );
        rows.push(out);
    }
    let csv: String = std::iter::once(
        "ranks,established_pairs,max_pairs_per_rank,bytes_per_rank,srq_highwater\n".to_string(),
    )
    .chain(rows.iter().map(|r| {
        format!(
            "{},{},{},{},{}\n",
            r.ranks(),
            r.established_pairs(),
            r.max_pairs_per_rank(),
            r.bytes_per_rank(),
            r.srq_highwater()
        )
    }))
    .collect();
    if let Err(e) = std::fs::write(path, csv) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("memory-per-rank curve written to {path}");
    let mut bad = false;
    for r in &rows {
        if let Err(violations) = r.healthy() {
            println!(
                "FAIL: ranks {} run unhealthy: {}",
                r.ranks(),
                violations.join("; ")
            );
            bad = true;
        }
    }
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    let rank_growth = (last.ranks() / first.ranks()) as u64;
    // Connections: linear in ranks (x1.5 slack). Quadratic growth would
    // multiply by rank_growth^2.
    if last.established_pairs() > first.established_pairs() * rank_growth * 3 / 2 {
        println!(
            "FAIL: pairs grew {} -> {} over a {}x rank increase (super-linear)",
            first.established_pairs(),
            last.established_pairs(),
            rank_growth
        );
        bad = true;
    }
    // Per-rank memory: flat (x2 slack). Per-pair receive rings would grow
    // it by rank_growth.
    if last.bytes_per_rank() > first.bytes_per_rank() * 2 {
        println!(
            "FAIL: per-rank buffer bytes grew {} -> {} over a {}x rank increase",
            first.bytes_per_rank(),
            last.bytes_per_rank(),
            rank_growth
        );
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
    println!();
}

/// `--kill SPEC [--ranks N]`: the rank-death soak. Parses the kill
/// schedule, runs the ULFM-tolerant halo with the failure subsystem
/// armed, prints the recovery counters and gates the outcome. The
/// reports (`--metrics-json`, `--compare-metrics`, `--trace-out`,
/// `--explain-msg`) cover this run, its `failures` and `critical_path`
/// sections included. Exits 1 on any gate violation, 2 on a malformed or
/// out-of-range schedule.
fn kill_soak(spec: &str, ranks: usize, srq: bool, reports: &Reports) {
    let kills = parse_kill_spec(spec).and_then(|k| Scenario::halo(ranks, srq, Vec::new(), k));
    let sc = scenario("--kill spec", kills);
    println!(
        "== rank-death soak: {ranks} ranks, SRQ {}, killing {} ==",
        on_off(srq),
        bench::kill_spec_string(sc.kills()),
    );
    let out = bench::run(&sc);
    println!(
        "virtual time {:.1} ms | wall {:.1} ms | {} events | fingerprint {:#018x}",
        out.elapsed_ns as f64 / 1e6,
        out.wall_ns as f64 / 1e6,
        out.sim_events,
        out.fingerprint()
    );
    println!(
        "operations: {} completed, {} PeerFailed, {} Revoked, {} corrupted payloads",
        out.tally.ok, out.tally.peer_failed, out.tally.revoked, out.tally.corrupt
    );
    if let Some(f) = &out.failures {
        println!(
            "failure plane: {} kills, {} detected (p99 latency {:.1} us), \
             {} revocation epochs, {} shrink agreement(s), {} dead-peer objects reclaimed",
            f.kills,
            f.detections,
            f.detection_latency_p99_ns as f64 / 1e3,
            f.revokes,
            f.shrinks,
            f.reclaimed
        );
    }
    println!(
        "survivors: {} of {ranks}, shrunk world size {}",
        out.survivors(),
        out.outs
            .iter()
            .flatten()
            .map(|o| o.sub_size)
            .next()
            .unwrap_or(0)
    );
    print_audit(&out);
    let mut ok = gate(&out);
    reports.trace(&out.events);
    if reports.metrics_wanted() {
        ok &= reports.metrics(&out, "");
    }
    if !ok {
        std::process::exit(1);
    }
    println!();
}

/// Parse a `--kill` schedule: a comma list of `<after_ops>:<rank>`.
/// Range checks against the rank count belong to [`Scenario::halo`].
fn parse_kill_spec(spec: &str) -> Result<Vec<dcfa_mpi::KillSpec>, String> {
    spec.split(',')
        .map(|part| {
            let (after, rank) = part
                .split_once(':')
                .ok_or_else(|| format!("{part:?}: expected <after_ops>:<rank>"))?;
            let after_ops: u64 = after
                .trim()
                .parse()
                .map_err(|_| format!("{part:?}: bad operation count {after:?}"))?;
            let rank: usize = rank
                .trim()
                .parse()
                .map_err(|_| format!("{part:?}: bad rank {rank:?}"))?;
            Ok(dcfa_mpi::KillSpec { rank, after_ops })
        })
        .collect()
}

/// `--chaos [--seed N] [--ranks N]`: one deterministic chaos iteration —
/// sample a kill schedule from the seed, soak it twice (the replay must
/// fingerprint bit-for-bit identically), gate the outcome, and on a
/// failure print the greedily shrunk minimal reproducer in `--kill`
/// syntax. Exits 1 if the schedule surfaced a violation.
fn chaos_fuzz(seed: u64, ranks: usize, srq: bool) {
    let sc = scenario("--chaos", Scenario::chaos(seed, ranks, srq));
    println!(
        "== chaos fuzz: seed {seed}, {ranks} ranks, SRQ {} ==",
        on_off(srq)
    );
    // Print the sampled schedule before running, so a hang (itself a
    // bug the fuzzer exists to find) is attributable to a schedule.
    println!(
        "schedule ({} kills): {}",
        sc.kills().len(),
        bench::kill_spec_string(sc.kills())
    );
    let report = bench::chaos(&sc);
    println!(
        "fingerprint {:#018x} | replay {:#018x} ({}) | {} soak run(s)",
        report.fingerprint,
        report.replay_fingerprint,
        if report.fingerprint == report.replay_fingerprint {
            "bit-for-bit match"
        } else {
            "MISMATCH"
        },
        report.runs
    );
    if report.violations.is_empty() {
        println!("chaos: schedule survived every gate");
        println!();
        return;
    }
    println!("chaos: {} gate violation(s):", report.violations.len());
    for v in &report.violations {
        println!("  {v}");
    }
    if let Some(minimal) = &report.minimal {
        println!(
            "minimal reproducer ({} of {} kills): repro --ranks {ranks} --kill \"{}\"",
            minimal.len(),
            sc.kills().len(),
            bench::kill_spec_string(minimal)
        );
    }
    std::process::exit(1);
}

/// `--faults SPEC [--srq]`: arm the parsed fault plans on the fabric, run
/// the fault-tolerant 4-rank mixed workload (on the SRQ receive pool when
/// `--srq` is given — the permanent CI variant), and report how the
/// faults surfaced: per-rank recovery counters, operation outcomes and
/// the protocol-auditor verdict. Exits 1 on any gate violation, 2 on a
/// malformed spec.
fn fault_soak(spec: &str, srq: bool) {
    let faults = match fabric::parse_fault_spec(spec) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bad --faults spec: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "== fault soak: {} fault plan(s) armed over the 4-rank mixed run (SRQ {}) ==",
        faults.len(),
        on_off(srq)
    );
    let out = bench::run(&Scenario::mixed(srq, faults, Vec::new()));
    println!(
        "operations: {} completed, {} failed with a transport error",
        out.tally.ok, out.tally.failed
    );
    for r in out.reports() {
        let c = &r.comm;
        println!(
            "rank {}: wc faults {}  retries {}  failed {}  reissues {}",
            r.rank, c.wr_faults, c.wr_retries, c.transport_failures, c.handshake_reissues
        );
    }
    print_audit(&out);
    if !gate(&out) {
        std::process::exit(1);
    }
    println!();
}

/// `--daemon-faults SPEC`: arm the parsed control-plane fault plans on
/// the delegation daemons, run the fault-tolerant 4-rank mixed workload
/// (heartbeats and lease reaper live), and report how the chaos
/// surfaced: recovery counters, payload integrity, host-memory balance
/// and the auditor verdict. Exits 1 on any gate violation (a corrupted
/// payload, a leaked host twin page, an auditor objection), 2 on a
/// malformed spec.
fn daemon_fault_soak(spec: &str) {
    let faults = match dcfa::parse_daemon_fault_spec(spec) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bad --daemon-faults spec: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "== daemon chaos soak: {} control-plane fault plan(s) armed over the 4-rank mixed run ==",
        faults.len()
    );
    let out = bench::run(&Scenario::mixed(false, Vec::new(), faults));
    println!(
        "operations: {} completed, {} failed with a transport error, {} corrupted payloads",
        out.tally.ok, out.tally.failed, out.tally.corrupt
    );
    if let Some(d) = &out.daemon {
        println!(
            "control plane: {} crashes / {} respawns, {} cmd timeouts, {} retries, \
             {} reply replays, {} reattaches ({} MRs adopted), {} leases reclaimed, {} heartbeats",
            d.daemon_crashes,
            d.daemon_respawns,
            d.cmd_timeouts,
            d.cmd_retries,
            d.reply_replays,
            d.reattaches,
            d.mrs_adopted,
            d.leases_reclaimed,
            d.heartbeats,
        );
    }
    for (node, before, after) in &out.mem_balance {
        if before != after {
            println!("node {node}: host pages LEAKED ({before} B -> {after} B)");
        } else {
            println!("node {node}: host pages balanced ({before} B)");
        }
    }
    print_audit(&out);
    if !gate(&out) {
        std::process::exit(1);
    }
    println!();
}

/// `--stats` / `--trace` / `--trace-out` / `--explain-msg` /
/// `--metrics-json` / `--compare-metrics` (without `--kill`): run the
/// traced 4-rank mixed-protocol profile and report counters, fabric
/// utilization, latency percentiles, the event-ring tail and the
/// auditor verdict; export the Perfetto trace or explain one message's
/// causal timeline; write and gate the metrics report. Exits 1 on a gate
/// violation or metric drift, 2 when a report cannot be read or parsed.
fn profile(show_stats: bool, show_trace: bool, reports: &Reports) {
    let out = bench::run(&Scenario::profile());
    if show_stats {
        println!("== per-rank protocol & cache counters (traced 4-rank mixed run) ==");
        for r in out.reports() {
            println!("{r}");
        }
        println!(
            "trace ring: {} events captured, {} dropped",
            out.events.len(),
            out.dropped
        );
        if let Some(d) = &out.daemon {
            println!(
                "dcfa daemons: {} connections, {} commands ({} reg / {} dereg MR, {} reg / {} dereg offload, {} errors)",
                d.connections,
                d.commands,
                d.mr_registered,
                d.mr_deregistered,
                d.offload_registered,
                d.offload_deregistered,
                d.errors,
            );
            println!(
                "dcfa control: {} cmd timeouts, {} retries, {} reply replays, \
                 {} crashes / {} respawns, {} reattaches, {} leases reclaimed, {} heartbeats",
                d.cmd_timeouts,
                d.cmd_retries,
                d.reply_replays,
                d.daemon_crashes,
                d.daemon_respawns,
                d.reattaches,
                d.leases_reclaimed,
                d.heartbeats,
            );
        }
        println!("fabric channels:");
        for f in &out.fabric {
            println!("{f}");
        }
        let phases = out.metrics.merged_by_phase();
        if !phases.is_empty() {
            println!("latency percentiles (virtual ns, all ranks merged):");
            println!(
                "{:>14} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "phase", "samples", "p50", "p90", "p99", "max"
            );
            for (phase, s) in &phases {
                println!(
                    "{:>14} {:>8} {:>12.0} {:>12.0} {:>12.0} {:>12}",
                    phase.name(),
                    s.count,
                    s.p50(),
                    s.p90(),
                    s.p99(),
                    s.max
                );
            }
        }
    }
    if show_trace {
        const TAIL: usize = 40;
        let skip = out.events.len().saturating_sub(TAIL);
        println!(
            "== protocol event trace: last {} of {} events ({} dropped by ring) ==",
            out.events.len() - skip,
            out.events.len(),
            out.dropped
        );
        for ev in &out.events[skip..] {
            println!("  {ev:?}");
        }
    }
    let observe = show_stats || show_trace || reports.trace_wanted();
    if observe {
        reports.trace(&out.events);
        print_audit(&out);
    }
    if !gate(&out) {
        std::process::exit(1);
    }
    if observe {
        println!();
    }
    if !reports.metrics_wanted() {
        return;
    }
    let wall_secs = out.wall_ns as f64 / 1e9;
    println!(
        "wall clock: {:.1} ms  |  {} events ({:.0} events/s)  |  {} ops ({:.0} ops/s)",
        out.wall_ns as f64 / 1e6,
        out.sim_events,
        out.sim_events as f64 / wall_secs.max(1e-12),
        out.mpi_ops(),
        out.mpi_ops() as f64 / wall_secs.max(1e-12),
    );
    let note = format!(
        " ({} phases, {} histograms)",
        out.metrics.merged_by_phase().len(),
        out.metrics.snapshot().len()
    );
    if !reports.metrics(&out, &note) {
        std::process::exit(1);
    }
    println!();
}

/// Export a traced run as Perfetto trace-event JSON, self-validating the
/// output against the trace-event schema before writing — CI relies on
/// this instead of a separate validator command. Exits 1 if the export
/// fails its own validation (an exporter bug), 2 if the file cannot be
/// written.
fn write_trace_json(path: &str, events: &[dcfa_mpi::TraceEvent]) {
    let out = bench::stitch::trace_json(events);
    let stats = match bench::stitch::validate_trace_json(&out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace export failed schema self-validation: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!(
        "perfetto trace written to {path}: {} records ({} slices, {} flow pairs, {} tracks) — \
         load it at https://ui.perfetto.dev",
        stats.events, stats.slices, stats.flows, stats.tracks
    );
}
