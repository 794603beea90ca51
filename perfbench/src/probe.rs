//! Micro-probes of the simcore process model, run beside each traced
//! workload: what one process-to-process handoff and one device `Call`
//! event cost on the host clock.

use std::sync::Arc;
use std::time::Instant;

use simcore::{Completion, Scheduler, SimDuration, Simulation};

/// Wall nanoseconds per handoff between two processes that take turns
/// through a [`Completion`] each (`rounds` round trips, two handoffs each).
pub fn handoff_ns(rounds: usize) -> f64 {
    let mut sim = Simulation::new();
    let ping: Arc<Vec<Completion>> = Arc::new((0..rounds).map(|_| Completion::new()).collect());
    let pong: Arc<Vec<Completion>> = Arc::new((0..rounds).map(|_| Completion::new()).collect());
    let (ping2, pong2) = (ping.clone(), pong.clone());
    sim.spawn("probe-a", move |ctx| {
        for i in 0..rounds {
            ping[i].complete_now(&ctx.scheduler());
            ctx.wait(&pong[i]);
        }
    });
    sim.spawn("probe-b", move |ctx| {
        for i in 0..rounds {
            ctx.wait(&ping2[i]);
            pong2[i].complete_now(&ctx.scheduler());
        }
    });
    let t = Instant::now();
    sim.run_expect();
    t.elapsed().as_nanos() as f64 / (2 * rounds.max(1)) as f64
}

/// Wall nanoseconds per no-op `Scheduler::call_after` event, over a chain
/// of `calls` events each scheduling the next.
pub fn call_ns(calls: u64) -> f64 {
    fn chain(s: &Scheduler, left: u64) {
        if left > 0 {
            s.call_after(SimDuration(1), move |s| chain(s, left - 1));
        }
    }
    let mut sim = Simulation::new();
    chain(&sim.scheduler(), calls);
    let t = Instant::now();
    let report = sim.run_expect();
    assert_eq!(report.events_processed, calls, "one event per call");
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_positive_costs() {
        assert!(handoff_ns(50) > 0.0);
        assert!(call_ns(1000) > 0.0);
    }
}
