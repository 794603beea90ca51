//! Integration tests for the discrete-event engine: determinism, ordering,
//! blocking primitives, deadlock and panic reporting.

use std::sync::Arc;

use parking_lot::Mutex;
use simcore::{Completion, Mailbox, SimDuration, SimError, SimEvent, SimTime, Simulation};

#[test]
fn single_process_advances_time() {
    let mut sim = Simulation::new();
    sim.spawn("p", |ctx| {
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.sleep(SimDuration::from_micros(5));
        assert_eq!(ctx.now().as_nanos(), 5_000);
        ctx.sleep(SimDuration::from_micros(5));
        assert_eq!(ctx.now().as_nanos(), 10_000);
    });
    let report = sim.run_expect();
    assert_eq!(report.final_time.as_nanos(), 10_000);
}

#[test]
fn zero_sleep_is_noop() {
    let mut sim = Simulation::new();
    sim.spawn("p", |ctx| {
        ctx.sleep(SimDuration::ZERO);
        assert_eq!(ctx.now(), SimTime::ZERO);
    });
    sim.run_expect();
}

#[test]
fn processes_interleave_in_time_order() {
    let log: Arc<Mutex<Vec<(u64, &'static str)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    for (name, step) in [("a", 3u64), ("b", 5u64)] {
        let log = log.clone();
        sim.spawn(name, move |ctx| {
            for _ in 0..3 {
                ctx.sleep(SimDuration::from_nanos(step));
                log.lock().push((ctx.now().as_nanos(), name));
            }
        });
    }
    sim.run_expect();
    let got = log.lock().clone();
    assert_eq!(
        got,
        vec![(3, "a"), (5, "b"), (6, "a"), (9, "a"), (10, "b"), (15, "b"),]
    );
}

#[test]
fn equal_time_events_fire_in_schedule_order() {
    let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    for i in 0..8 {
        let log = log.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            ctx.sleep(SimDuration::from_nanos(100));
            log.lock().push(i);
        });
    }
    sim.run_expect();
    assert_eq!(log.lock().clone(), (0..8).collect::<Vec<_>>());
}

#[test]
fn determinism_across_runs() {
    fn run_once() -> Vec<(u64, usize)> {
        let log: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let ev = SimEvent::new();
        let counter = Arc::new(Mutex::new(0u32));
        for i in 0..5 {
            let log = log.clone();
            let ev = ev.clone();
            let counter = counter.clone();
            sim.spawn(format!("w{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_nanos(10 * (i as u64 % 3)));
                loop {
                    let seen = ev.epoch();
                    if *counter.lock() >= i as u32 {
                        break;
                    }
                    ctx.wait_event(&ev, seen, "counter");
                }
                *counter.lock() += 1;
                let sched = ctx.scheduler();
                ev.notify_all(&sched);
                log.lock().push((ctx.now().as_nanos(), i));
            });
        }
        sim.run_expect();
        let out = log.lock().clone();
        out
    }
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b);
    assert_eq!(a.len(), 5);
}

#[test]
fn completion_wakes_waiter_at_exact_time() {
    let mut sim = Simulation::new();
    let c = Completion::new();
    let c2 = c.clone();
    sim.spawn("waiter", move |ctx| {
        ctx.wait(&c2);
        assert_eq!(ctx.now().as_nanos(), 777);
    });
    let c3 = c.clone();
    sim.spawn("signaler", move |ctx| {
        let sched = ctx.scheduler();
        c3.complete_at(&sched, SimTime(777));
    });
    sim.run_expect();
}

#[test]
fn wait_on_already_done_completion_returns_immediately() {
    let mut sim = Simulation::new();
    let c = Completion::new();
    let c2 = c.clone();
    sim.spawn("p", move |ctx| {
        let sched = ctx.scheduler();
        c2.complete_now(&sched);
        ctx.wait(&c2);
        assert_eq!(ctx.now(), SimTime::ZERO);
    });
    sim.run_expect();
}

#[test]
fn multiple_waiters_on_one_completion() {
    let mut sim = Simulation::new();
    let c = Completion::new();
    let hits = Arc::new(Mutex::new(0u32));
    for i in 0..4 {
        let c = c.clone();
        let hits = hits.clone();
        sim.spawn(format!("w{i}"), move |ctx| {
            ctx.wait(&c);
            assert_eq!(ctx.now().as_nanos(), 42);
            *hits.lock() += 1;
        });
    }
    let c2 = c.clone();
    sim.spawn("sig", move |ctx| {
        let sched = ctx.scheduler();
        c2.complete_at(&sched, SimTime(42));
    });
    sim.run_expect();
    assert_eq!(*hits.lock(), 4);
}

#[test]
fn mailbox_transfers_between_processes() {
    let mut sim = Simulation::new();
    let mb: Mailbox<u64> = Mailbox::new();
    let tx = mb.clone();
    sim.spawn("producer", move |ctx| {
        for i in 0..10 {
            ctx.sleep(SimDuration::from_nanos(100));
            let sched = ctx.scheduler();
            tx.send(&sched, i);
        }
    });
    let rx = mb.clone();
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = got.clone();
    sim.spawn("consumer", move |ctx| {
        for _ in 0..10 {
            let v = rx.recv(ctx);
            got2.lock().push((ctx.now().as_nanos(), v));
        }
    });
    sim.run_expect();
    let got = got.lock().clone();
    assert_eq!(got.len(), 10);
    for (i, (t, v)) in got.iter().enumerate() {
        assert_eq!(*v, i as u64);
        assert_eq!(*t, 100 * (i as u64 + 1));
    }
}

#[test]
fn deadlock_is_reported_with_names_and_reasons() {
    let mut sim = Simulation::new();
    let c = Completion::new();
    let c2 = c.clone();
    sim.spawn("stuck-rank", move |ctx| {
        ctx.wait_reason(&c2, "recv from rank 1");
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].name, "stuck-rank");
            assert_eq!(blocked[0].reason, "recv from rank 1");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn process_panic_is_captured() {
    let mut sim = Simulation::new();
    sim.spawn("bad", |_ctx| {
        panic!("protocol violation xyz");
    });
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "bad");
            assert!(message.contains("protocol violation xyz"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn event_limit_catches_livelock() {
    let mut sim = Simulation::new();
    sim.set_event_limit(1000);
    sim.spawn("spinner", |ctx| loop {
        ctx.yield_now();
    });
    match sim.run() {
        Err(SimError::EventLimit { limit, .. }) => assert_eq!(limit, 1000),
        other => panic!("expected event limit, got {other:?}"),
    }
}

#[test]
fn spawn_from_within_process() {
    let mut sim = Simulation::new();
    let total = Arc::new(Mutex::new(0u32));
    let total2 = total.clone();
    sim.spawn("parent", move |ctx| {
        ctx.sleep(SimDuration::from_nanos(10));
        for i in 0..3 {
            let total = total2.clone();
            ctx.spawn(format!("child{i}"), move |cctx| {
                cctx.sleep(SimDuration::from_nanos(5));
                *total.lock() += 1;
            });
        }
    });
    let report = sim.run_expect();
    assert_eq!(*total.lock(), 3);
    assert_eq!(report.final_time.as_nanos(), 15);
}

#[test]
fn scheduler_call_after_runs_at_offset() {
    let mut sim = Simulation::new();
    let hit = Arc::new(Mutex::new(None));
    let hit2 = hit.clone();
    sim.spawn("p", move |ctx| {
        let sched = ctx.scheduler();
        let hit3 = hit2.clone();
        sched.call_after(SimDuration::from_micros(2), move |s| {
            *hit3.lock() = Some(s.now());
        });
        ctx.sleep(SimDuration::from_micros(5));
    });
    sim.run_expect();
    assert_eq!(hit.lock().unwrap(), SimTime(2_000));
}

#[test]
fn yield_now_lets_same_time_peers_run() {
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let l1 = log.clone();
    sim.spawn("first", move |ctx| {
        l1.lock().push("first-before");
        ctx.yield_now();
        l1.lock().push("first-after");
    });
    let l2 = log.clone();
    sim.spawn("second", move |_ctx| {
        l2.lock().push("second");
    });
    sim.run_expect();
    assert_eq!(
        log.lock().clone(),
        vec!["first-before", "second", "first-after"]
    );
}

#[test]
fn trace_hook_receives_messages() {
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let l2 = lines.clone();
    sim.set_trace(move |t, msg| l2.lock().push(format!("{}:{msg}", t.as_nanos())));
    sim.spawn("p", |ctx| {
        ctx.sleep(SimDuration::from_nanos(9));
        ctx.trace("hello");
    });
    sim.run_expect();
    assert_eq!(lines.lock().clone(), vec!["9:hello".to_string()]);
}

/// Mixed wake + device-callback workload over 300 processes. Returns the
/// full observable trace plus the processed-event count.
fn mixed_trace() -> (Vec<(u64, usize, u32)>, u64) {
    let log: Arc<Mutex<Vec<(u64, usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let n = 300;
    for i in 0..n {
        let log = log.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            for round in 0..6u32 {
                let d = 1 + ((i as u64 * 7 + u64::from(round) * 13) % 97);
                ctx.sleep(SimDuration::from_nanos(d));
                log.lock().push((ctx.now().as_nanos(), i, round));
                if round == 2 {
                    // Device callback: a `Call` event interleaved with wakes.
                    let log = log.clone();
                    let sched = ctx.scheduler();
                    sched.call_after(SimDuration::from_nanos(50), move |s| {
                        log.lock().push((s.now().as_nanos(), i, 99));
                    });
                }
            }
        });
    }
    let report = sim.run_expect();
    let trace = log.lock().clone();
    (trace, report.events_processed)
}

#[test]
fn mixed_wake_and_call_run_is_deterministic() {
    let (t1, e1) = mixed_trace();
    let (t2, e2) = mixed_trace();
    assert_eq!(t1.len(), 300 * 7);
    assert!(
        t1.windows(2).all(|w| w[0].0 <= w[1].0),
        "events fired out of time order"
    );
    assert_eq!(t1, t2);
    assert_eq!(e1, e2);
}

#[test]
fn many_processes_scale() {
    let mut sim = Simulation::new();
    let n = 256;
    let done = Arc::new(Mutex::new(0u32));
    for i in 0..n {
        let done = done.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            for _ in 0..10 {
                ctx.sleep(SimDuration::from_nanos(1 + i as u64));
            }
            *done.lock() += 1;
        });
    }
    sim.run_expect();
    assert_eq!(*done.lock(), n);
}
