//! perfbench — the simulator's benchmark on both clocks.
//!
//! ```text
//! perfbench --workload <halo256|pingpong|kill256> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>]
//! ```
//!
//! `--trace 0` repeats the workload in its end-to-end configuration for
//! `--seconds` and prints the end-to-end metrics; `--trace 1` is the
//! separate traced run that prints the per-layer metrics. Each iteration
//! runs in a fresh child process (`--iteration <kind>`), one at a time,
//! so no allocator or thread state carries from one iteration into the
//! next — as in separate `repro` invocations. Every iteration passes the
//! correctness gates; a run that fails one prints the violations and
//! `"correct": false` without metrics, and exits 1. The last line of
//! standard output is the JSON result. See `README.md`.

mod probe;
mod report;
mod spans;
mod stats;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use report::{END_TO_END, PER_LAYER};
use workload::{Mode, Params, Sample, Workload};

/// Fewest iterations a run makes, whatever `--seconds` says: enough for
/// a median and for the run-twice determinism gate.
const MIN_SAMPLES: usize = 3;

/// What one iteration measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The end-to-end configuration.
    Plain,
    /// Every instrument on, spans included.
    Traced,
    /// The end-to-end configuration with the engine ring toggled.
    Flipped,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Plain => "plain",
            Kind::Traced => "traced",
            Kind::Flipped => "flipped",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        [Kind::Plain, Kind::Traced, Kind::Flipped]
            .into_iter()
            .find(|k| k.name() == s)
    }

    fn mode(self, w: Workload) -> Mode {
        let plain = Mode::plain(w);
        match self {
            Kind::Plain => plain,
            Kind::Traced => Mode::traced(),
            Kind::Flipped => Mode {
                ring: !plain.ring,
                ..plain
            },
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    iteration: Option<Kind>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out, mut iteration) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {val:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("duration"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace switch")),
                })
            }
            "--out" => out = Some(PathBuf::from(val)),
            "--iteration" => iteration = Some(Kind::parse(val).ok_or_else(|| bad("kind"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        iteration,
    })
}

/// Child side: run one iteration and print its encoded sample.
fn iterate(args: &Args, kind: Kind) -> String {
    let w = args.workload;
    let mut s = workload::run(w, args.seed, &Params::full(w), kind.mode(w));
    s.peak_rss_mb = sys::peak_rss_mib();
    if kind == Kind::Traced {
        s.values.extend(report::span_values(&s.spans));
        if w == Workload::Halo256 {
            s.violations.extend(report::split_violation(&s));
        }
        if let Some(dir) = &args.out {
            let path = dir.join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
            if let Err(e) = spans::write_jsonl(&path, &s.spans) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
    }
    s.encode()
}

/// Driver side: run one iteration in a child process and read its sample
/// back. A child that dies yields a sample holding the violation.
fn spawn_iteration(args: &Args, kind: Kind) -> Sample {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .args(["--iteration", kind.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = &args.out {
        cmd.arg("--out").arg(dir);
    }
    match cmd.output() {
        Ok(o) if o.status.success() => String::from_utf8(o.stdout)
            .map_err(|e| e.to_string())
            .and_then(|t| Sample::decode(&t))
            .unwrap_or_else(|e| Sample::failed(format!("unreadable iteration output: {e}"))),
        Ok(o) => Sample::failed(format!("iteration process failed: {}", o.status)),
        Err(e) => Sample::failed(format!("cannot start iteration process: {e}")),
    }
}

/// Run iterations, cycling through `kinds`, until `seconds` have passed
/// and at least `MIN_SAMPLES` (and one of each kind) ran. Stops early at
/// the first iteration that fails a gate.
fn collect(args: &Args, kinds: &[Kind]) -> Vec<(Kind, Sample)> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let min = MIN_SAMPLES.max(kinds.len());
    let mut out: Vec<(Kind, Sample)> = Vec::new();
    loop {
        let kind = kinds[out.len() % kinds.len()];
        let s = spawn_iteration(args, kind);
        eprintln!(
            "perfbench: {} iteration {} ({}): run {:.4} s, cpu {:.4} s, setup {:.4} s, \
             rss {:.0} MiB, {} events",
            args.workload.name(),
            out.len(),
            kind.name(),
            s.run.wall_s,
            s.run.process_cpu_s,
            s.setup_s,
            s.peak_rss_mb,
            s.events
        );
        let bad = !s.violations.is_empty();
        out.push((kind, s));
        if bad || (out.len() >= min && Instant::now() >= deadline) {
            return out;
        }
    }
}

/// Identity of the running executable: a rebuilt benchmark (or program)
/// starts a fresh cross-run fingerprint record.
fn exe_identity() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let t = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok());
            format!("{}-{}", m.len(), t.map_or(0, |d| d.as_nanos()))
        })
        .unwrap_or_default()
}

/// The cross-run half of the determinism gate: the first run of a seed
/// records its fingerprint under `dir`; every later run of the same seed
/// by the same executable must reproduce it.
fn check_recorded_fingerprint(dir: &Path, w: Workload, seed: u64, fp: u64) -> Option<String> {
    let path = dir.join(format!("fingerprint-{}-{seed}.txt", w.name()));
    let line = format!("{} {fp:#018x}", exe_identity());
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.split_whitespace().next() == line.split_whitespace().next() => {
            (prev.trim() != line).then(|| {
                format!("fingerprint {fp:#018x} differs from an earlier run of this seed: {prev}")
            })
        }
        _ => {
            // First run of this seed by this executable: record it. A
            // write failure only loses the cross-run half of the gate.
            if let Err(e) = std::fs::write(&path, format!("{line}\n")) {
                eprintln!(
                    "perfbench: cannot record fingerprint in {}: {e}",
                    path.display()
                );
            }
            None
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <halo256|pingpong|kill256> --seed <n> \
                 --seconds <s> --trace <0|1> [--out <dir>]"
            );
            std::process::exit(2);
        }
    };
    if let Some(kind) = args.iteration {
        print!("{}", iterate(&args, kind));
        return;
    }
    let w = args.workload;
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    let kinds: &[Kind] = if args.trace {
        &[Kind::Traced, Kind::Plain, Kind::Flipped]
    } else {
        &[Kind::Plain]
    };
    let samples = collect(&args, kinds);
    let by_kind = |k: Kind| -> Vec<&Sample> {
        samples
            .iter()
            .filter(|(sk, _)| *sk == k)
            .map(|(_, s)| s)
            .collect()
    };

    let mut violations: Vec<String> = Vec::new();
    for (i, (_, s)) in samples.iter().enumerate() {
        violations.extend(s.violations.iter().map(|v| format!("iteration {i}: {v}")));
    }
    if violations.is_empty() {
        let all: Vec<&Sample> = samples.iter().map(|(_, s)| s).collect();
        violations.extend(report::determinism_violations(&all));
        if let Some(dir) = &args.out {
            violations.extend(check_recorded_fingerprint(
                dir,
                w,
                args.seed,
                all[0].fingerprint,
            ));
        }
    }

    let (defs, figs): (&[report::Def], _) = if args.trace {
        let figs = report::per_layer(
            &by_kind(Kind::Traced),
            &by_kind(Kind::Plain),
            &by_kind(Kind::Flipped),
            Mode::plain(w).ring,
            probe::handoff_ns(5_000),
            probe::call_ns(200_000),
        );
        (&PER_LAYER, figs)
    } else {
        (&END_TO_END, report::end_to_end(&by_kind(Kind::Plain)))
    };

    let attempted: u64 = samples.iter().map(|(_, s)| s.attempted).sum();
    let failed: u64 = samples.iter().map(|(_, s)| s.failed).sum();
    let correct = violations.is_empty() && failed == 0 && attempted > 0;
    if correct {
        print!("{}", report::table(w, defs, &figs));
    } else {
        for v in violations.iter().take(40) {
            println!("GATE FAILED: {v}");
        }
    }
    println!(
        "{}",
        report::result_json(correct, attempted, failed, defs, &figs)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests;
