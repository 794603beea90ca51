//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds its name, rank (`-1` for the driver thread), parent,
//! and start/end on three clocks: wall, the recording thread's CPU, and
//! virtual time. Each simulated process records into its own
//! [`Recorder`], so recording takes no lock; the recorders are merged
//! after the run and written out once, when the benchmark ends.
//!
//! A parked rank's wall span also covers every other process's work
//! (only one simulated process runs at a time), so a rank's self time is
//! its thread-CPU delta, never its wall delta.

use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::sys::thread_cpu_ns;

/// Rank value of spans recorded on the driver thread.
pub const DRIVER: i32 = -1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: i32,
    /// Index of the parent span in the merged list, if any.
    pub parent: Option<usize>,
    pub wall_ns: (u64, u64),
    pub cpu_ns: (u64, u64),
    pub vt_ns: (u64, u64),
}

impl Span {
    pub fn cpu(&self) -> u64 {
        self.cpu_ns.1.saturating_sub(self.cpu_ns.0)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn wall_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Span recorder of one thread. A disabled recorder reads no clock.
#[derive(Debug, Clone)]
pub struct Recorder {
    on: bool,
    rank: i32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when recording is off).
pub type Open = Option<usize>;

impl Recorder {
    pub fn new(on: bool, rank: i32) -> Recorder {
        epoch();
        Recorder {
            on,
            rank,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, vt_ns: u64) -> Open {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            rank: self.rank,
            parent: self.open.last().copied(),
            wall_ns: (wall_ns(), 0),
            cpu_ns: (thread_cpu_ns(), 0),
            vt_ns: (vt_ns, 0),
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close a span opened by [`Recorder::open`] (innermost first).
    pub fn close(&mut self, open: Open, vt_ns: u64) {
        let Some(idx) = open else {
            return;
        };
        let s = &mut self.spans[idx];
        s.cpu_ns.1 = thread_cpu_ns();
        s.wall_ns.1 = wall_ns();
        s.vt_ns.1 = vt_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Time `f` as a span whose virtual clock does not move (driver-side
    /// calls made outside `Simulation::run`).
    pub fn time<T>(&mut self, name: &'static str, vt_ns: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, vt_ns);
        let r = f();
        self.close(s, vt_ns);
        r
    }

    /// Move this recorder's spans into `out`, re-basing parent indices
    /// and hanging root spans under `root` (e.g. the driver's run span).
    pub fn drain_into(&mut self, out: &mut Vec<Span>, root: Option<usize>) {
        let base = out.len();
        out.extend(self.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(root);
            s
        }));
        self.open.clear();
    }
}

/// Record a span named `$name` around `$e`, stamped with the virtual
/// clock of `$ctx`. Reads no clock when `$rec` is off.
macro_rules! span {
    ($rec:expr, $ctx:expr, $name:expr, $e:expr) => {{
        let open = if $rec.on() {
            $rec.open($name, $ctx.now().0)
        } else {
            None
        };
        let r = $e;
        if open.is_some() {
            $rec.close(open, $ctx.now().0);
        }
        r
    }};
}
pub(crate) use span;

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"rank\":{},\"parent\":{parent},\
             \"wall_ns\":[{},{}],\"cpu_ns\":[{},{}],\"vt_ns\":[{},{}]}}",
            s.name, s.rank, s.wall_ns.0, s.wall_ns.1, s.cpu_ns.0, s.cpu_ns.1, s.vt_ns.0, s.vt_ns.1
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_rebase_on_merge() {
        let mut r = Recorder::new(true, 3);
        let outer = r.open("outer", 10);
        let inner = r.open("inner", 11);
        r.close(inner, 12);
        r.close(outer, 20);
        let mut all = vec![Span {
            name: "run",
            rank: DRIVER,
            parent: None,
            wall_ns: (0, 1),
            cpu_ns: (0, 1),
            vt_ns: (0, 0),
        }];
        r.drain_into(&mut all, Some(0));
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].name, "outer");
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[2].vt_ns, (11, 12));
        assert_eq!(all[1].rank, 3);
        assert!(all[1].wall_ns.1 >= all[2].wall_ns.1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, 0);
        let s = r.open("x", 0);
        assert!(s.is_none());
        r.close(s, 1);
        assert_eq!(r.time("y", 0, || 7), 7);
        let mut out = Vec::new();
        r.drain_into(&mut out, None);
        assert!(out.is_empty());
    }
}
