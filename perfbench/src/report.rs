//! The metric catalogue, the reduction of a run's samples to metrics, the
//! correctness gates that span samples, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::{Span, DRIVER};
use crate::stats::{median, percentile, spread};
use crate::workload::{Sample, Workload};

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run. Host-clock figures
/// are medians over the run's iterations; `vt_us` is the virtual
/// makespan, identical in every iteration of a seed. Its unit `vus`
/// marks virtual microseconds, which no host-clock change may move.
pub const END_TO_END: [Def; 5] = [
    def("run_s", "s", "lower"),
    def("cpu_s", "s", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("vt_us", "vus", "lower"),
];

/// Per-layer metrics, printed by every traced run (0 where a layer does
/// no work on the workload).
pub const PER_LAYER: [Def; 52] = [
    def("simcore.events", "count", "lower"),
    def("simcore.ns_per_event", "ns", "lower"),
    def("simcore.vcsw_per_event", "1/event", "lower"),
    def("simcore.ivcsw_per_event", "1/event", "lower"),
    def("simcore.sys_share", "ratio", "lower"),
    def("simcore.driver_cpu_s", "s", "lower"),
    def("simcore.handoff_ns", "ns", "lower"),
    def("simcore.call_ns", "ns", "lower"),
    def("simcore.spawn_us", "us", "lower"),
    def("simcore.teardown_s", "s", "lower"),
    def("engine.rank_cpu_s", "s", "lower"),
    def("engine.isend_cpu_ns_p50", "ns", "lower"),
    def("engine.isend_cpu_ns_p99", "ns", "lower"),
    def("engine.irecv_cpu_ns_p50", "ns", "lower"),
    def("engine.irecv_cpu_ns_p99", "ns", "lower"),
    def("engine.wait_cpu_ns_p50", "ns", "lower"),
    def("engine.wait_cpu_ns_p99", "ns", "lower"),
    def("engine.revoke_cpu_us", "us", "lower"),
    def("engine.shrink_cpu_us", "us", "lower"),
    def("engine.eager_sends", "count", "lower"),
    def("engine.rndv_sends", "count", "lower"),
    def("engine.offload_syncs", "count", "lower"),
    def("engine.packets", "count", "lower"),
    def("engine.doorbells_coalesced", "count", "higher"),
    def("engine.retries", "count", "lower"),
    def("engine.pairs", "count", "lower"),
    def("engine.bytes_per_rank", "B", "lower"),
    def("mrcache.hit_ratio", "ratio", "higher"),
    def("dcfa.commands", "count", "lower"),
    def("dcfa.ctrl_p99_vns", "vns", "lower"),
    def("daemons.cpu_s", "s", "lower"),
    def("cpu.unattributed_pct", "%", "lower"),
    def("fabric.bytes", "B", "lower"),
    def("fabric.copy_ns_per_kib", "ns/KiB", "lower"),
    def("fabric.detect_p99_vus", "vus", "lower"),
    def("trace.records", "count", "lower"),
    def("trace.dropped", "count", "lower"),
    def("trace.ring_overhead_pct", "%", "lower"),
    def("trace.audit_s", "s", "lower"),
    def("bench.span_overhead_pct", "%", "lower"),
    def("stitch.s", "s", "lower"),
    def("cp.wire_vns", "vns", "lower"),
    def("cp.credit_stall_vns", "vns", "lower"),
    def("cp.daemon_vns", "vns", "lower"),
    def("cp.rdma_vns", "vns", "lower"),
    def("cp.host_copy_vns", "vns", "lower"),
    def("cp.stash_dwell_vns", "vns", "lower"),
    def("cp.local_vns", "vns", "lower"),
    def("rtt_4b_us", "vus", "lower"),
    def("bw_4mib_gbs", "GB/s", "higher"),
    def("recovery_us", "vus", "lower"),
    def("ops_failed_share", "ratio", "lower"),
];

/// Span names that are calls into the MPI layer (`Comm`/`SubComm`).
const MPI_CALLS: [&str; 9] = [
    "isend", "irecv", "wait", "send", "recv", "sendrecv", "revoke", "shrink", "free",
];

/// One metric's reduction: the reported value plus the spread and sample
/// count behind it (a single reading has spread 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    pub value: f64,
    pub spread: f64,
    pub n: usize,
}

impl Figure {
    fn of(xs: &[f64]) -> Figure {
        Figure {
            value: median(xs),
            spread: spread(xs),
            n: xs.len(),
        }
    }

    fn one(value: f64) -> Figure {
        Figure {
            value,
            spread: 0.0,
            n: 1,
        }
    }
}

fn col(samples: &[&Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(|s| f(s)).collect()
}

/// Gates that compare samples: every virtual-clock observable (folded
/// into the fingerprint) must repeat bit for bit across the iterations
/// of one seed, whatever the instrumentation.
pub fn determinism_violations(samples: &[&Sample]) -> Vec<String> {
    let Some(first) = samples.first() else {
        return vec!["no iteration ran".into()];
    };
    samples
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, s)| s.fingerprint != first.fingerprint || s.vt_ns != first.vt_ns)
        .map(|(i, s)| {
            format!(
                "iteration {i}: fingerprint {:#018x} / vt {} ns differ from iteration 0's \
                 {:#018x} / {} ns",
                s.fingerprint, s.vt_ns, first.fingerprint, first.vt_ns
            )
        })
        .collect()
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(all: &[&Sample]) -> BTreeMap<&'static str, Figure> {
    let mut m = BTreeMap::new();
    m.insert("run_s", Figure::of(&col(all, |s| s.run.wall_s)));
    m.insert("cpu_s", Figure::of(&col(all, |s| s.run.process_cpu_s)));
    m.insert("setup_s", Figure::of(&col(all, |s| s.setup_s)));
    m.insert("peak_rss_mb", Figure::of(&col(all, |s| s.peak_rss_mb)));
    m.insert("vt_us", Figure::of(&col(all, |s| s.vt_ns as f64 / 1e3)));
    m
}

/// Per-layer metrics of a traced run. `t` are the traced iterations
/// (every instrument on), `p` the plain ones (end-to-end configuration)
/// and `f` the flipped ones (engine ring toggled against `p`);
/// `ring_in_plain` says which of `p` and `f` had the ring on. Host-clock
/// simcore figures come from `p`, so the spans do not perturb them.
pub fn per_layer(
    t: &[&Sample],
    p: &[&Sample],
    f: &[&Sample],
    ring_in_plain: bool,
    handoff_ns: f64,
    call_ns: f64,
) -> BTreeMap<&'static str, Figure> {
    let mut m = BTreeMap::new();
    let per_event = |s: &Sample, x: f64| {
        if s.events == 0 {
            0.0
        } else {
            x / s.events as f64
        }
    };
    m.insert("simcore.events", Figure::of(&col(p, |s| s.events as f64)));
    m.insert(
        "simcore.ns_per_event",
        Figure::of(&col(p, |s| per_event(s, s.run.wall_s * 1e9))),
    );
    m.insert(
        "simcore.vcsw_per_event",
        Figure::of(&col(p, |s| per_event(s, s.run.usage.vcsw as f64))),
    );
    m.insert(
        "simcore.ivcsw_per_event",
        Figure::of(&col(p, |s| per_event(s, s.run.usage.ivcsw as f64))),
    );
    m.insert(
        "simcore.sys_share",
        Figure::of(&col(p, |s| {
            let total = s.run.usage.user_s + s.run.usage.sys_s;
            if total > 0.0 {
                s.run.usage.sys_s / total
            } else {
                0.0
            }
        })),
    );
    m.insert(
        "simcore.driver_cpu_s",
        Figure::of(&col(p, |s| s.run.thread_cpu_s)),
    );
    m.insert("simcore.handoff_ns", Figure::one(handoff_ns));
    m.insert("simcore.call_ns", Figure::one(call_ns));
    m.insert(
        "simcore.spawn_us",
        Figure::of(&col(p, |s| s.launch_s * 1e6 / s.spawned.max(1) as f64)),
    );
    m.insert("simcore.teardown_s", Figure::of(&col(p, |s| s.teardown_s)));

    // Span summaries, counters and virtual results of the traced
    // iterations (counters and virtual results repeat in every one).
    for d in PER_LAYER {
        if !m.contains_key(d.name) && t.iter().any(|s| s.values.contains_key(d.name)) {
            m.insert(d.name, Figure::of(&col(t, |s| s.value(d.name))));
        }
    }
    m.insert(
        "mrcache.hit_ratio",
        Figure::of(&col(t, |s| {
            let (h, x) = (s.value("mrcache.hits"), s.value("mrcache.misses"));
            if h + x > 0.0 {
                h / (h + x)
            } else {
                0.0
            }
        })),
    );

    // The from-outside CPU split: driver thread, rank threads and DCFA
    // daemon threads against the whole process over `run`.
    m.insert("daemons.cpu_s", Figure::of(&col(t, |s| s.daemon_cpu_s)));
    m.insert(
        "cpu.unattributed_pct",
        Figure::of(&col(t, unattributed_pct)),
    );

    // Instrumentation cost: the engine ring, and the benchmark's own
    // spans (traced run against the untraced configuration).
    let run_s = |v: &[&Sample]| median(&col(v, |s| s.run.wall_s));
    let (on, off) = if ring_in_plain { (&p, &f) } else { (&f, &p) };
    let pct = |a: f64, b: f64| if b > 0.0 { 100.0 * (a - b) / b } else { 0.0 };
    m.insert(
        "trace.ring_overhead_pct",
        Figure::one(pct(run_s(on), run_s(off))),
    );
    m.insert(
        "bench.span_overhead_pct",
        Figure::one(pct(run_s(t), run_s(p))),
    );

    for d in PER_LAYER.iter() {
        m.entry(d.name).or_insert(Figure::one(0.0));
    }
    m
}

/// Summaries of a traced iteration's rank spans: the thread-CPU self
/// time of the calls into the MPI layer, in total and per call kind.
pub fn span_values(spans: &[Span]) -> Vec<(String, f64)> {
    let cpu = |names: &[&str]| -> Vec<u64> {
        spans
            .iter()
            .filter(|sp| sp.rank != DRIVER && names.contains(&sp.name))
            .map(Span::cpu)
            .collect()
    };
    let total = |names: &[&str]| cpu(names).iter().sum::<u64>() as f64;
    let mut v = vec![
        ("engine.rank_cpu_s".to_string(), total(&MPI_CALLS) * 1e-9),
        (
            "engine.revoke_cpu_us".to_string(),
            total(&["revoke"]) * 1e-3,
        ),
        (
            "engine.shrink_cpu_us".to_string(),
            total(&["shrink"]) * 1e-3,
        ),
    ];
    for call in ["isend", "irecv", "wait"] {
        let xs = cpu(&[call]);
        v.push((
            format!("engine.{call}_cpu_ns_p50"),
            percentile(&xs, 50) as f64,
        ));
        v.push((
            format!("engine.{call}_cpu_ns_p99"),
            percentile(&xs, 99) as f64,
        ));
    }
    v
}

/// Share of process CPU over `run` that neither the driver thread, the
/// rank threads nor the live DCFA daemon threads account for, in percent.
pub fn unattributed_pct(s: &Sample) -> f64 {
    let total = s.run.process_cpu_s;
    if total <= 0.0 {
        return 0.0;
    }
    100.0 * (total - s.run.thread_cpu_s - s.rank_thread_cpu_s - s.daemon_cpu_s) / total
}

/// Largest share of process CPU the from-outside split may leave
/// unattributed on `halo256`, in percent.
pub const SPLIT_TOLERANCE_PCT: f64 = 5.0;

/// The from-outside CPU split gate: driver thread, rank threads and DCFA
/// daemon threads must account for the process CPU over `run` to within
/// [`SPLIT_TOLERANCE_PCT`].
pub fn split_violation(s: &Sample) -> Option<String> {
    let gap = unattributed_pct(s);
    (gap.abs() > SPLIT_TOLERANCE_PCT).then(|| {
        format!(
            "CPU split leaves {gap:.2}% of process CPU unattributed \
             (driver {:.4} s + ranks {:.4} s + daemons {:.4} s vs process {:.4} s)",
            s.run.thread_cpu_s, s.rank_thread_cpu_s, s.daemon_cpu_s, s.run.process_cpu_s
        )
    })
}

/// Human-readable table: every metric with its median, spread and
/// sample count.
pub fn table(w: Workload, defs: &[Def], figs: &BTreeMap<&'static str, Figure>) -> String {
    let mut out = format!("perfbench {}:\n", w.name());
    for d in defs {
        if let Some(f) = figs.get(d.name) {
            let _ = writeln!(
                out,
                "  {:<28} {:>16.6} {:<8} spread {:>6.2}%  n={}",
                d.name,
                f.value,
                d.unit,
                f.spread * 100.0,
                f.n
            );
        }
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and, when correct, every metric of `defs` by name with its unit.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    figs: &BTreeMap<&'static str, Figure>,
) -> String {
    let mut metrics = Vec::new();
    if correct {
        for d in defs {
            let v = figs.get(d.name).map_or(0.0, |f| f.value);
            let v = if v.is_finite() { v } else { 0.0 };
            metrics.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
