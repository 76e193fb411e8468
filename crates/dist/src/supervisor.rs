//! Worker liveness tracking and supervision policy.
//!
//! The learner owns one [`Supervisor`]; every frame a worker sends is an
//! implicit heartbeat ([`Supervisor::observe`]). A periodic
//! [`Supervisor::tick`] ages workers through `Healthy → Suspect → Dead`
//! against configured deadlines. The supervisor is pure bookkeeping — it
//! *reports* transitions and the learner decides what to do (keep
//! training, restart the process, re-admit on reconnect), which keeps
//! the policy testable without any I/O.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Liveness state of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Heartbeats arriving within the suspect deadline.
    Healthy,
    /// No traffic for `suspect_after`; still given the benefit of doubt.
    Suspect,
    /// No traffic for `dead_after`; eligible for restart.
    Dead,
}

/// Per-worker health record.
#[derive(Debug, Clone)]
pub struct WorkerHealth {
    /// The worker's id.
    pub id: u32,
    /// Current liveness classification.
    pub liveness: Liveness,
    /// When the last frame from this worker arrived.
    pub last_seen: Instant,
    /// Successful reconnects (resume handshakes) observed.
    pub reconnects: u64,
    /// Frames from this worker dropped by quarantine.
    pub quarantined: u64,
    /// Times the supervisor declared this worker dead and it was
    /// restarted.
    pub restarts: u64,
    /// Last parameter epoch acknowledged by this worker.
    pub epoch: u64,
}

/// Deadlines and tolerances of the supervision policy.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Silence after which a worker turns `Suspect`.
    pub suspect_after: Duration,
    /// Silence after which a worker turns `Dead`.
    pub dead_after: Duration,
    /// Maximum parameter-epoch lag tolerated before a frame is stale.
    pub max_epoch_lag: u64,
    /// Interval at which workers are asked to heartbeat.
    pub heartbeat_interval: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            suspect_after: Duration::from_millis(500),
            dead_after: Duration::from_millis(2000),
            // A learner ingesting a backlog can advance several epochs in
            // one serve-loop pass, and every in-flight frame then lags by
            // that jump — the tolerance must cover normal burst dynamics
            // and only catch workers that miss many broadcasts in a row.
            max_epoch_lag: 8,
            heartbeat_interval: Duration::from_millis(100),
        }
    }
}

/// A liveness transition reported by [`Supervisor::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The worker that transitioned.
    pub worker_id: u32,
    /// Its previous state.
    pub from: Liveness,
    /// Its new state.
    pub to: Liveness,
}

/// Tracks liveness and failure counters for a set of workers.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    workers: BTreeMap<u32, WorkerHealth>,
}

impl Supervisor {
    /// A supervisor with the given policy and no workers yet.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor { config, workers: BTreeMap::new() }
    }

    /// The active policy.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Registers a worker (idempotent). A re-registration of a known
    /// worker counts as a reconnect and revives it to `Healthy`.
    pub fn admit(&mut self, worker_id: u32, now: Instant) {
        match self.workers.get_mut(&worker_id) {
            Some(w) => {
                w.reconnects += 1;
                w.liveness = Liveness::Healthy;
                w.last_seen = now;
            }
            None => {
                self.workers.insert(
                    worker_id,
                    WorkerHealth {
                        id: worker_id,
                        liveness: Liveness::Healthy,
                        last_seen: now,
                        reconnects: 0,
                        quarantined: 0,
                        restarts: 0,
                        epoch: 0,
                    },
                );
            }
        }
    }

    /// Records traffic from a worker: refreshes its deadline and revives
    /// `Suspect`/`Dead` workers to `Healthy` (a dead worker that speaks
    /// again was merely slow — the restart path calls
    /// [`Supervisor::record_restart`] explicitly).
    pub fn observe(&mut self, worker_id: u32, now: Instant) {
        if let Some(w) = self.workers.get_mut(&worker_id) {
            w.last_seen = now;
            w.liveness = Liveness::Healthy;
        }
    }

    /// Records the parameter epoch a worker last acknowledged.
    pub fn observe_epoch(&mut self, worker_id: u32, epoch: u64) {
        if let Some(w) = self.workers.get_mut(&worker_id) {
            w.epoch = w.epoch.max(epoch);
        }
    }

    /// Classifies a frame epoch against the learner's current epoch.
    /// Returns `Err(max_lag)` when the frame is stale and must be
    /// quarantined.
    pub fn check_epoch(&self, frame_epoch: u64, current_epoch: u64) -> Result<(), u64> {
        if current_epoch.saturating_sub(frame_epoch) > self.config.max_epoch_lag {
            Err(self.config.max_epoch_lag)
        } else {
            Ok(())
        }
    }

    /// Counts a quarantined frame against a worker.
    pub fn record_quarantine(&mut self, worker_id: u32) {
        if let Some(w) = self.workers.get_mut(&worker_id) {
            w.quarantined += 1;
        }
    }

    /// Counts a supervised restart of a dead worker.
    pub fn record_restart(&mut self, worker_id: u32) {
        if let Some(w) = self.workers.get_mut(&worker_id) {
            w.restarts += 1;
        }
    }

    /// Ages every worker against the deadlines and returns the state
    /// transitions that occurred.
    pub fn tick(&mut self, now: Instant) -> Vec<Transition> {
        let mut out = Vec::new();
        for w in self.workers.values_mut() {
            let silence = now.saturating_duration_since(w.last_seen);
            let next = if silence >= self.config.dead_after {
                Liveness::Dead
            } else if silence >= self.config.suspect_after {
                Liveness::Suspect
            } else {
                Liveness::Healthy
            };
            if next != w.liveness {
                out.push(Transition { worker_id: w.id, from: w.liveness, to: next });
                w.liveness = next;
            }
        }
        out
    }

    /// Age of a worker's last heartbeat, if it is known.
    #[cfg(test)]
    fn heartbeat_age(&self, worker_id: u32, now: Instant) -> Option<Duration> {
        self.workers.get(&worker_id).map(|w| now.saturating_duration_since(w.last_seen))
    }

    /// The health record of one worker.
    pub fn worker(&self, worker_id: u32) -> Option<&WorkerHealth> {
        self.workers.get(&worker_id)
    }

    /// All tracked workers, ordered by id.
    pub fn workers(&self) -> impl Iterator<Item = &WorkerHealth> {
        self.workers.values()
    }

    /// Number of workers currently not `Dead`.
    pub fn alive(&self) -> usize {
        self.workers.values().filter(|w| w.liveness != Liveness::Dead).count()
    }

    /// Total quarantined frames across all workers.
    pub fn total_quarantined(&self) -> u64 {
        self.workers.values().map(|w| w.quarantined).sum()
    }

    /// Total reconnects across all workers.
    pub fn total_reconnects(&self) -> u64 {
        self.workers.values().map(|w| w.reconnects).sum()
    }

    /// Total restarts across all workers.
    pub fn total_restarts(&self) -> u64 {
        self.workers.values().map(|w| w.restarts).sum()
    }

    /// Oldest heartbeat age across non-dead workers (the gauge exported
    /// to metrics: a growing value means the slowest live worker is
    /// falling behind).
    pub fn max_heartbeat_age(&self, now: Instant) -> Option<Duration> {
        self.workers
            .values()
            .filter(|w| w.liveness != Liveness::Dead)
            .map(|w| now.saturating_duration_since(w.last_seen))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            suspect_after: Duration::from_millis(50),
            dead_after: Duration::from_millis(120),
            max_epoch_lag: 2,
            heartbeat_interval: Duration::from_millis(10),
        }
    }

    #[test]
    fn ages_healthy_suspect_dead_and_revives() {
        let mut s = Supervisor::new(cfg());
        let t0 = Instant::now();
        s.admit(1, t0);
        assert!(s.tick(t0 + Duration::from_millis(10)).is_empty());

        let tr = s.tick(t0 + Duration::from_millis(60));
        assert_eq!(
            tr,
            vec![Transition { worker_id: 1, from: Liveness::Healthy, to: Liveness::Suspect }]
        );

        let tr = s.tick(t0 + Duration::from_millis(130));
        assert_eq!(tr[0].to, Liveness::Dead);
        assert_eq!(s.alive(), 0);

        // Traffic revives it without a restart.
        s.observe(1, t0 + Duration::from_millis(140));
        assert_eq!(s.worker(1).unwrap().liveness, Liveness::Healthy);
        assert_eq!(s.alive(), 1);
        assert_eq!(s.worker(1).unwrap().restarts, 0);
    }

    #[test]
    fn readmission_counts_reconnects() {
        let mut s = Supervisor::new(cfg());
        let t0 = Instant::now();
        s.admit(3, t0);
        s.tick(t0 + Duration::from_millis(200));
        assert_eq!(s.worker(3).unwrap().liveness, Liveness::Dead);
        s.admit(3, t0 + Duration::from_millis(210));
        let w = s.worker(3).unwrap();
        assert_eq!(w.liveness, Liveness::Healthy);
        assert_eq!(w.reconnects, 1);
        assert_eq!(s.total_reconnects(), 1);
    }

    #[test]
    fn epoch_lag_policy() {
        let mut s = Supervisor::new(cfg());
        s.admit(1, Instant::now());
        assert!(s.check_epoch(5, 7).is_ok(), "lag 2 == max_lag is tolerated");
        assert_eq!(s.check_epoch(4, 7), Err(2), "lag 3 is stale");
        assert!(s.check_epoch(9, 7).is_ok(), "ahead-of-learner never stale");
        s.observe_epoch(1, 7);
        s.observe_epoch(1, 5);
        assert_eq!(s.worker(1).unwrap().epoch, 7, "epoch acks are monotonic");
    }

    #[test]
    fn aggregate_counters_and_heartbeat_age() {
        let mut s = Supervisor::new(cfg());
        let t0 = Instant::now();
        s.admit(1, t0);
        s.admit(2, t0);
        s.record_quarantine(1);
        s.record_quarantine(1);
        s.record_quarantine(2);
        s.record_restart(2);
        assert_eq!(s.total_quarantined(), 3);
        assert_eq!(s.total_restarts(), 1);
        s.observe(2, t0 + Duration::from_millis(30));
        let age = s.max_heartbeat_age(t0 + Duration::from_millis(40)).unwrap();
        assert_eq!(age, Duration::from_millis(40), "worker 1 is the laggard");
        assert_eq!(
            s.heartbeat_age(2, t0 + Duration::from_millis(40)),
            Some(Duration::from_millis(10))
        );
        assert_eq!(s.heartbeat_age(9, t0), None);
    }
}
