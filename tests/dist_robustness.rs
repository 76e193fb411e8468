//! Fault-tolerance of the distributed actor–learner runtime.
//!
//! Integration-level drills against `marl-dist`'s supervision layer:
//! free-running fleets over the loopback, heartbeat-silence death
//! detection with restart requests, stale-epoch quarantine with a
//! parameter refresh, and the full process-level chaos drill — real
//! `marl-worker` child processes over a Unix socket, one SIGKILLed
//! mid-episode, restarted under supervision, and re-admitted while the
//! learner keeps training.

use marl_repro::algo::{Algorithm, Task, TrainConfig};
use marl_repro::core::SamplerConfig;
use marl_repro::dist::wire::{EpisodeEnd, Hello, Msg, Steps};
use marl_repro::dist::{
    loopback_pair, run_worker, Acceptor, Backoff, ChaosPlan, DistError, Endpoint, Learner,
    LearnerOptions, RestartHandler, Transport, UnixAcceptor, WorkerPool,
};
use std::time::Duration;

mod common;

fn dist_config(episodes: usize, seed: u64) -> TrainConfig {
    let mut c = common::seeded_config(
        Algorithm::Maddpg,
        Task::PredatorPrey,
        3,
        SamplerConfig::Uniform,
        episodes,
        32,
        2048,
        seed,
    );
    c.update_every = 10;
    c
}

fn fast_opts() -> LearnerOptions {
    LearnerOptions {
        recv_timeout: Duration::from_millis(5),
        stall_timeout: Duration::from_secs(30),
        ..Default::default()
    }
}

/// Test-side acceptor: a queue of pre-connected loopback ends.
struct VecAcceptor(Vec<Box<dyn Transport>>);

impl Acceptor for VecAcceptor {
    fn try_accept(&mut self) -> Result<Option<Box<dyn Transport>>, DistError> {
        Ok(if self.0.is_empty() { None } else { Some(self.0.remove(0)) })
    }
}

/// Records restart requests instead of spawning anything.
#[derive(Default)]
struct RecordingRestarts(Vec<u32>);

impl RestartHandler for RecordingRestarts {
    fn restart(&mut self, worker_id: u32) -> bool {
        self.0.push(worker_id);
        true
    }
}

fn spawn_loopback_worker(
    worker_id: u32,
) -> (
    Box<dyn Transport>,
    std::thread::JoinHandle<Result<marl_repro::dist::worker::RunOutcome, DistError>>,
) {
    let (learner_end, worker_end) = loopback_pair(256, Duration::from_secs(5));
    let handle = std::thread::spawn(move || {
        let mut slot = Some(worker_end);
        let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(5), 0);
        run_worker(
            worker_id,
            move || {
                slot.take()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
                    .ok_or(DistError::Disconnected)
            },
            &mut backoff,
            1,
        )
    });
    (Box::new(learner_end), handle)
}

/// A two-worker free-running fleet over the loopback reaches the episode
/// target with zero quarantines, and the learner performed updates.
#[test]
fn free_running_loopback_fleet_reaches_target() {
    let cfg = dist_config(6, 11);
    let mut learner = Learner::new(cfg, fast_opts()).expect("learner builds");
    let (conn0, h0) = spawn_loopback_worker(0);
    let (conn1, h1) = spawn_loopback_worker(1);
    let mut acceptor = VecAcceptor(Vec::new());
    learner.serve_free(vec![conn0, conn1], &mut acceptor, None).expect("serve completes");
    assert!(learner.episodes_recorded() >= 6);
    assert!(learner.epoch() >= 1, "no updates ran");
    assert_eq!(learner.supervisor().alive(), 2);
    assert_eq!(learner.supervisor().total_quarantined(), 0);
    // Workers either completed their budget or were waved off; a worker
    // that raced the learner's shutdown reports its last transport error.
    let _ = h0.join().unwrap();
    let _ = h1.join().unwrap();
}

/// A worker that goes silent after admission is declared dead by
/// heartbeat silence and handed to the restart handler — while a healthy
/// worker keeps streaming and the learner keeps training to completion.
#[test]
fn silent_worker_is_declared_dead_and_restart_requested() {
    let cfg = dist_config(3, 12);
    let mut opts = fast_opts();
    opts.supervisor.suspect_after = Duration::from_millis(30);
    opts.supervisor.dead_after = Duration::from_millis(80);
    let mut learner = Learner::new(cfg, opts).expect("learner builds");

    let (healthy_conn, healthy) = spawn_loopback_worker(0);
    // The silent worker: handshakes, then never sends another frame.
    let (mut silent_end, silent_learner_end) = {
        let (a, b) = loopback_pair(64, Duration::from_secs(5));
        (a, Box::new(b) as Box<dyn Transport>)
    };
    silent_end.send(&Msg::Hello(Hello { worker_id: 7, resume: false })).unwrap();

    let mut restarts = RecordingRestarts::default();
    let mut acceptor = VecAcceptor(Vec::new());
    learner
        .serve_free(vec![healthy_conn, silent_learner_end], &mut acceptor, Some(&mut restarts))
        .expect("serve completes");

    assert!(restarts.0.contains(&7), "restart handler never asked about the silent worker");
    assert!(learner.supervisor().total_restarts() >= 1);
    assert!(learner.episodes_recorded() >= 3, "healthy worker kept the run going");
    let _ = healthy.join().unwrap();
}

/// A frame stamped with a parameter epoch older than the tolerance is
/// quarantined — dropped without ingestion, counted, and answered with a
/// fresh parameter broadcast instead of being trained on.
#[test]
fn stale_epoch_frame_is_quarantined_and_answered_with_refresh() {
    let cfg = dist_config(1, 13);
    let mut opts = fast_opts();
    opts.supervisor.max_epoch_lag = 0;
    let mut learner = Learner::new(cfg, opts).expect("learner builds");

    let (mut me, learner_end) = loopback_pair(64, Duration::from_secs(5));
    let speaker = std::thread::spawn(move || {
        me.send(&Msg::Hello(Hello { worker_id: 3, resume: false })).unwrap();
        let welcome = me.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(welcome, Msg::Welcome(_)));
        // 74 steps: past warmup 64 and update_every 10 ⇒ exactly one
        // update, advancing the learner to epoch 1.
        me.send(&Msg::Steps(Steps {
            worker_id: 3,
            epoch: 0,
            seq: 1,
            rows: common::zero_step_rows(74),
            rng: None,
            sync: false,
            ctx: None,
        }))
        .unwrap();
        // Now epoch 0 is stale (lag 0 tolerated): must be quarantined.
        me.send(&Msg::Steps(Steps {
            worker_id: 3,
            epoch: 0,
            seq: 2,
            rows: common::zero_step_rows(1),
            rng: None,
            sync: false,
            ctx: None,
        }))
        .unwrap();
        me.send(&Msg::EpisodeEnd(EpisodeEnd {
            worker_id: 3,
            mean_reward: 0.0,
            master_rng: [1, 2, 3, 4],
            env_rng: [5, 6, 7, 8],
            env_steps: 75,
            samples_since_update: 0,
            ctx: None,
        }))
        .unwrap();
        // Drain until the goodbye; count the parameter refreshes.
        let mut params = 0;
        loop {
            match me.recv_timeout(Duration::from_secs(10)) {
                Ok(Msg::Params(_)) => params += 1,
                Ok(Msg::Bye(_)) | Err(DistError::Disconnected) => break,
                Ok(_) => {}
                Err(DistError::Timeout { .. }) => {}
                Err(e) => panic!("speaker transport failed: {e}"),
            }
        }
        params
    });

    let mut acceptor = VecAcceptor(Vec::new());
    learner.serve_free(vec![Box::new(learner_end)], &mut acceptor, None).expect("serve completes");
    let params_seen = speaker.join().unwrap();

    assert_eq!(learner.supervisor().total_quarantined(), 1, "exactly the stale frame");
    assert_eq!(learner.epoch(), 1, "the stale frame must not have triggered training");
    assert_eq!(learner.episodes_recorded(), 1);
    // The post-update broadcast plus the quarantine refresh.
    assert!(params_seen >= 2, "expected broadcast + refresh, saw {params_seen}");
    assert_eq!(
        learner.supervisor().worker(3).expect("worker known").quarantined,
        1,
        "quarantine attributed to the offending worker"
    );
}

/// The full process-level chaos drill: two real `marl-worker` child
/// processes stream over a Unix socket; after the victim delivers three
/// step frames it is SIGKILLed mid-episode. The learner must keep
/// training on the survivor, declare the victim dead by heartbeat
/// silence, restart it through the pool, re-admit it with `resume`, and
/// still reach the episode target.
#[test]
fn sigkill_worker_is_restarted_and_run_completes() {
    let sock = std::env::temp_dir().join(format!("marl-dist-chaos-{}.sock", std::process::id()));
    // The episode target must keep the survivor busy well past the death
    // deadline, or the run can finish before the victim's silence is
    // noticed and no restart happens.
    let cfg = dist_config(60, 14);
    let mut opts = fast_opts();
    opts.supervisor.suspect_after = Duration::from_millis(50);
    opts.supervisor.dead_after = Duration::from_millis(150);
    opts.recv_timeout = Duration::from_millis(10);
    opts.stall_timeout = Duration::from_secs(60);
    let mut learner = Learner::new(cfg, opts).expect("learner builds");

    let mut acceptor = UnixAcceptor::bind(&sock).expect("bind socket");
    let mut pool = WorkerPool::new(
        std::path::PathBuf::from(env!("CARGO_BIN_EXE_marl-worker")),
        Endpoint::Unix(sock.clone()),
        2,
    )
    .with_chaos(ChaosPlan { victim: 1, after_frames: 3 });
    pool.spawn(0).expect("spawn worker 0");
    pool.spawn(1).expect("spawn worker 1");

    learner.serve_free(Vec::new(), &mut acceptor, Some(&mut pool)).expect("serve completes");
    pool.join_all(Duration::from_secs(5));

    assert!(pool.chaos_fired(), "the SIGKILL never fired");
    // At least one restart of the victim; the tight death deadline may
    // occasionally declare a busy worker dead a second time, which the
    // pool also handles (capped at max_restarts).
    assert!(pool.restart_count(1) >= 1, "the victim must be restarted");
    assert!(learner.episodes_recorded() >= 60);
    assert!(learner.supervisor().total_restarts() >= 1);
    assert!(
        learner.supervisor().total_reconnects() >= 1,
        "the restarted victim must be re-admitted"
    );
    assert!(learner.epoch() >= 1, "training must have continued through the failure");
    let _ = std::fs::remove_file(&sock);
}
