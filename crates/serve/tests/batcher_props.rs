//! Property tests for the work-conserving micro-batcher, driven in
//! virtual time.
//!
//! A simulated engine replays random arrival schedules (random
//! inter-arrival gaps with same-instant bursts, connection assignments,
//! early connection closes, a shutdown instant) against random batch
//! geometries. It mirrors the server's combining discipline, where
//! whichever reader holds the engine runs the batch: the engine is busy
//! for a drawn service time after each flush; whenever it comes free it
//! flushes again if [`MicroBatcher::ready`] says so (the combiner's next
//! pass), otherwise it goes idle until the next push (a reader that wins
//! the engine). A push refused by a full queue blocks until the in-flight
//! forward ends and retries with its original arrival stamp. A shutdown
//! is noticed when the engine next comes free, which then drains
//! everything queued in one final batch. The threads themselves — no
//! push stranded when a combiner releases — are stress-tested in
//! `server.rs`. Invariants:
//!
//! * **No request is lost or duplicated, and FIFO order holds** — the
//!   flushed stream is exactly the submitted stream, in order.
//! * **Responses map to the right connection** — each flushed slot still
//!   carries the `(conn, req)` identity it was submitted with, and only
//!   closed connections ever have responses recycled.
//! * **The engine is never idle while a request is queued** — each flush
//!   starts at the later of its first request's arrival and the end of
//!   the previous busy interval.
//! * **A request that arrives at an idle engine waits 0 ns** — any wait
//!   means some earlier forward was in flight at the arrival instant.
//! * **A flush takes min(queued, `max_batch`)**.
//! * **A shutdown that lands during a busy interval drains everything
//!   queued** — in one batch, the moment the forward ends, even past
//!   `max_batch`.

// Slots are boxed end to end in the real server (pointer-sized
// hand-offs, stable heap identity for the zero-alloc pool); the tests
// mirror that layout.
#![allow(clippy::vec_box)]

use marl_serve::batcher::{BatcherConfig, MicroBatcher, RequestSlot};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Event {
    /// A request arrives on `conn` after `gap_ns`.
    Arrive { gap_ns: u64, conn: u64 },
    /// `conn` closes early; its later flushed slots are recycled.
    Close { conn: u64 },
}

fn event_strategy() -> impl Strategy<Value = Event> {
    // A quarter of arrivals land in the same instant as the previous
    // one (bursts), closes are rare (the vendored proptest stub has no
    // `prop_oneof`, so weight by mapping a selector range).
    (0u64..12, 0u64..400_000, 0u64..4).prop_map(|(pick, gap_ns, conn)| match pick {
        0..=2 => Event::Arrive { gap_ns: 0, conn },
        3..=10 => Event::Arrive { gap_ns, conn },
        _ => Event::Close { conn },
    })
}

#[derive(Debug)]
struct Flushed {
    conn: u64,
    req: u64,
    arrived_ns: u64,
    delivered: bool,
}

#[derive(Debug)]
struct Flush {
    start_ns: u64,
    end_ns: u64,
    /// Queue length the instant before the flush drained it.
    queued: usize,
    shutdown: bool,
    slots: Vec<Flushed>,
}

/// The virtual-time engine: one engine, one queue.
struct Sim {
    batcher: MicroBatcher,
    /// Engine service times, one per flush, cycled.
    services_ns: Vec<u64>,
    now_ns: u64,
    /// When the in-flight forward ends; `None` while the engine is idle.
    free_at_ns: Option<u64>,
    closed: BTreeSet<u64>,
    next_req: u64,
    out: Vec<Box<RequestSlot>>,
    flushes: Vec<Flush>,
}

impl Sim {
    fn new(config: BatcherConfig, services_ns: Vec<u64>) -> Self {
        Sim {
            batcher: MicroBatcher::new(config),
            services_ns,
            now_ns: 0,
            free_at_ns: None,
            closed: BTreeSet::new(),
            next_req: 0,
            out: Vec::new(),
            flushes: Vec::new(),
        }
    }

    fn flush(&mut self, at_ns: u64, shutdown: bool) {
        let queued = self.batcher.len();
        if shutdown {
            self.batcher.drain_all_into(&mut self.out);
        } else {
            self.batcher.drain_into(&mut self.out);
        }
        let end_ns = at_ns + self.services_ns[self.flushes.len() % self.services_ns.len()];
        let closed = &self.closed;
        let slots = self
            .out
            .drain(..)
            .map(|slot| Flushed {
                conn: slot.conn_id,
                req: slot.req_id,
                arrived_ns: slot.enqueued_at_ns,
                delivered: !closed.contains(&slot.conn_id),
            })
            .collect();
        self.flushes.push(Flush { start_ns: at_ns, end_ns, queued, shutdown, slots });
        self.free_at_ns = Some(end_ns);
    }

    /// Runs the engine through instant `t_ns`: each time it comes free
    /// with work queued it flushes at once, otherwise it goes idle. A
    /// forward ending exactly at `t_ns` checks the queue before anything
    /// arriving at `t_ns` is pushed.
    fn run_until(&mut self, t_ns: u64) {
        while let Some(free_ns) = self.free_at_ns.filter(|&f| f <= t_ns) {
            if self.batcher.ready(free_ns) {
                self.flush(free_ns, false);
            } else {
                self.free_at_ns = None;
            }
        }
    }

    fn arrive(&mut self, gap_ns: u64, conn: u64) {
        self.now_ns += gap_ns;
        self.run_until(self.now_ns);
        let arrived_ns = self.now_ns;
        let mut slot = Box::new(RequestSlot {
            req_id: self.next_req,
            conn_id: conn,
            ..RequestSlot::default()
        });
        self.next_req += 1;
        while let Err(refused) = self.batcher.push(slot, arrived_ns) {
            slot = refused;
            // Only a busy engine leaves a queue to fill: the reader
            // blocks until the forward ends and the combiner drains.
            let free_ns = self.free_at_ns.expect("a full queue means the engine is busy");
            self.now_ns = free_ns;
            self.run_until(free_ns);
        }
        // The push found the engine idle: its reader combines.
        if self.free_at_ns.is_none() && self.batcher.ready(self.now_ns) {
            self.flush(self.now_ns, false);
        }
    }

    /// Sets the shutdown flag `gap_ns` after the last arrival. An idle
    /// engine has an empty queue; a busy one sees the flag when
    /// its forward ends and drains the whole backlog.
    fn shutdown(&mut self, gap_ns: u64) {
        self.now_ns += gap_ns;
        self.run_until(self.now_ns);
        if let Some(free_ns) = self.free_at_ns {
            if !self.batcher.is_empty() {
                self.flush(free_ns, true);
            }
        }
        assert!(self.batcher.is_empty(), "shutdown leaves nothing queued");
    }

    fn replay(config: BatcherConfig, services_ns: Vec<u64>, events: &[Event], stop: u64) -> Self {
        let mut sim = Sim::new(config, services_ns);
        for event in events {
            match event {
                Event::Arrive { gap_ns, conn } => sim.arrive(*gap_ns, *conn),
                Event::Close { conn } => {
                    sim.closed.insert(*conn);
                }
            }
        }
        sim.shutdown(stop);
        sim
    }
}

/// The engine-side invariants every schedule must satisfy.
fn check_flush_policy(flushes: &[Flush], max_batch: usize) -> Result<(), TestCaseError> {
    let mut prev_end_ns = 0;
    for (k, f) in flushes.iter().enumerate() {
        prop_assert!(!f.slots.is_empty(), "flush {} is empty", k);
        // Never idle while a request is queued.
        let first_arrival_ns = f.slots[0].arrived_ns;
        prop_assert_eq!(
            f.start_ns,
            prev_end_ns.max(first_arrival_ns),
            "flush {} starts at neither its first arrival nor the previous busy end",
            k
        );
        // A flush takes min(queued, max_batch); the shutdown drain takes
        // everything queued.
        let want = if f.shutdown { f.queued } else { f.queued.min(max_batch) };
        prop_assert_eq!(f.slots.len(), want, "flush {} size", k);
        prop_assert!(!f.shutdown || k + 1 == flushes.len(), "the shutdown drain is last");
        // A request that arrives at an idle engine waits 0 ns: any wait
        // means an earlier forward was in flight at its arrival.
        for s in &f.slots {
            if f.start_ns > s.arrived_ns {
                let engine_busy = flushes[..k]
                    .iter()
                    .any(|p| p.start_ns <= s.arrived_ns && s.arrived_ns < p.end_ns);
                prop_assert!(
                    engine_busy,
                    "req {} arrived at an idle engine at {} ns but waited until {} ns",
                    s.req,
                    s.arrived_ns,
                    f.start_ns
                );
            }
        }
        prev_end_ns = f.end_ns;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn work_conserving_flushes_lose_nothing_and_route_every_response(
        max_batch in 1usize..=8,
        extra_capacity in 0usize..=8,
        services_ns in proptest::collection::vec(0u64..300_000, 1..16),
        events in proptest::collection::vec(event_strategy(), 1..200),
        stop_ns in 0u64..400_000,
    ) {
        let config = BatcherConfig { max_batch, queue_capacity: max_batch + extra_capacity };
        let sim = Sim::replay(config, services_ns, &events, stop_ns);
        let flushes = &sim.flushes;
        check_flush_policy(flushes, max_batch)?;

        // No request lost, none duplicated: the flushed stream is exactly
        // the submitted stream, in FIFO order.
        let flushed: Vec<&Flushed> = flushes.iter().flat_map(|f| &f.slots).collect();
        prop_assert_eq!(flushed.len() as u64, sim.next_req);
        for (i, f) in flushed.iter().enumerate() {
            prop_assert_eq!(f.req, i as u64, "FIFO order preserved");
        }

        // A shutdown drain only follows a forward that was in flight when
        // the shutdown landed, and starts the moment that forward ends.
        if let [.., prev, last] = &flushes[..] {
            if last.shutdown {
                prop_assert!(prev.start_ns <= sim.now_ns && sim.now_ns < prev.end_ns);
                prop_assert_eq!(last.start_ns, prev.end_ns);
            }
        }

        // Responses route to the connection that sent the request, and
        // only closed connections ever have responses recycled.
        let mut expected_conn = BTreeMap::new();
        let mut req = 0u64;
        let mut ever_closed = BTreeSet::new();
        for event in &events {
            match event {
                Event::Arrive { conn, .. } => {
                    expected_conn.insert(req, *conn);
                    req += 1;
                }
                Event::Close { conn } => {
                    ever_closed.insert(*conn);
                }
            }
        }
        for f in &flushed {
            prop_assert_eq!(Some(&f.conn), expected_conn.get(&f.req));
            if !f.delivered {
                prop_assert!(ever_closed.contains(&f.conn));
            }
        }
    }

    #[test]
    fn shutdown_behind_an_in_flight_forward_drains_the_whole_backlog(
        max_batch in 1usize..=6,
        extra_capacity in 0usize..=12,
        backlog_pick in 0usize..1_000,
        service_ns in 1u64..1_000_000,
        more_services_ns in proptest::collection::vec(0u64..1_000_000, 1..4),
        start_ns in 0u64..1_000_000,
        shutdown_pick in 0u64..1_000_000,
        conns in proptest::collection::vec(0u64..4, 20..21),
    ) {
        // A burst of 1 + backlog requests at one instant on an idle
        // engine: the first goes straight into a forward, the backlog
        // queues behind it (never more than the queue holds, so no push
        // blocks), and the shutdown lands before that forward ends.
        let capacity = max_batch + extra_capacity;
        let backlog = 1 + backlog_pick % capacity.min(conns.len() - 1);
        let mut events = vec![Event::Arrive { gap_ns: start_ns, conn: conns[0] }];
        events.extend((0..backlog).map(|i| Event::Arrive { gap_ns: 0, conn: conns[i + 1] }));
        let services_ns = [vec![service_ns], more_services_ns].concat();
        let stop_ns = shutdown_pick % service_ns;
        let config = BatcherConfig { max_batch, queue_capacity: capacity };
        let sim = Sim::replay(config, services_ns, &events, stop_ns);
        check_flush_policy(&sim.flushes, max_batch)?;

        prop_assert_eq!(sim.flushes.len(), 2, "one lone forward, then the shutdown drain");
        let (first, drain) = (&sim.flushes[0], &sim.flushes[1]);
        prop_assert_eq!((first.start_ns, first.slots.len()), (start_ns, 1));
        prop_assert_eq!(first.slots[0].arrived_ns, start_ns, "the lone arrival waited 0 ns");
        prop_assert!(drain.shutdown);
        prop_assert_eq!(drain.start_ns, start_ns + service_ns, "drained when the forward ended");
        prop_assert_eq!(drain.slots.len(), backlog, "the whole backlog, even past max_batch");
        for (i, s) in drain.slots.iter().enumerate() {
            prop_assert_eq!((s.req, s.conn), (i as u64 + 1, conns[i + 1]));
        }
    }
}
