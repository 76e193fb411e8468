//! Fault-injection tests of the crash-safe runtime (run with
//! `cargo test --features failpoints`).
//!
//! These drive the recovery machinery end-to-end: a simulated kill mid-run
//! resumes bitwise-identically from the autosave, an injected NaN trips
//! the divergence sentinel and rolls back to the last good checkpoint,
//! and injected write corruption exercises the `.prev` fallback.
#![cfg(feature = "failpoints")]

use marl_repro::algo::failpoint::{self, Fault};
use marl_repro::algo::{
    checkpoint::{load_checkpoint_with_fallback, write_checkpoint_file},
    Algorithm, Task, TrainConfig, TrainError, Trainer,
};
use marl_repro::core::SamplerConfig;
use marl_repro::dist::wire::{ActorParams, EpisodeEnd, Heartbeat, Hello, Msg, Params, Steps};
use marl_repro::dist::{
    loopback_pair, Acceptor, DistError, Learner, LearnerOptions, StreamTransport, Transport,
};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

mod common;

/// The failpoint registry is process-global, so tests serialize on this
/// lock and clear the registry on entry.
static FAILPOINTS: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear();
    guard
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marl_fault_injection_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config(sampler: SamplerConfig) -> TrainConfig {
    let mut c =
        common::seeded_config(Algorithm::Maddpg, Task::PredatorPrey, 3, sampler, 6, 32, 1024, 55)
            .with_checkpoint_every(2);
    c.update_every = 25;
    c
}

/// The acceptance scenario: interrupt a run via the failpoint after four
/// episodes, resume from the on-disk autosave, and finish — the final
/// weights and reward curve are bitwise identical to a run that was never
/// interrupted.
#[test]
fn kill_and_resume_is_bitwise_identical() {
    let guard = locked();
    let cfg = config(SamplerConfig::IpLocality);

    let mut straight = Trainer::new(cfg).unwrap();
    let full = straight.train().unwrap();

    let path = tmp_path("kill_resume.bin");
    let mut victim = Trainer::new(cfg).unwrap();
    failpoint::arm_after("train::episode", Fault::Abort, 4);
    let err = victim.train_with_autosave(Some(&path)).unwrap_err();
    assert_eq!(err, TrainError::Interrupted { episodes_done: 4 });
    drop(victim); // the "killed" process

    let (ckpt, replay, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(!from_prev);
    let mut resumed = Trainer::new(cfg).unwrap();
    resumed.restore_full(ckpt, &replay).unwrap();
    assert_eq!(resumed.episodes_done(), 4, "autosave fired at the last even episode");
    let rest = resumed.train_with_autosave(Some(&path)).unwrap();

    assert_eq!(rest.curve.values(), full.curve.values(), "rewards must match bitwise");
    let weights = |t: &Trainer| serde_json::to_string(&t.checkpoint().agents).unwrap();
    assert_eq!(weights(&resumed), weights(&straight), "weights must match bitwise");
    drop(guard);
}

/// An injected NaN TD error trips the sentinel; the runtime rolls back to
/// the in-memory last-good checkpoint and the retry — no longer faulted —
/// completes the run with exactly the un-faulted result.
#[test]
fn transient_nan_recovers_via_rollback() {
    let guard = locked();
    let cfg = config(SamplerConfig::Uniform);

    let mut straight = Trainer::new(cfg).unwrap();
    let full = straight.train().unwrap();

    let path = tmp_path("nan_rollback.bin");
    let mut faulted = Trainer::new(cfg).unwrap();
    // Fire on the second update round: by then the episode-2 autosave
    // exists, so the rollback has a checkpoint to return to.
    failpoint::arm_after("update::tds", Fault::Nan, 1);
    let report = faulted.train_with_autosave(Some(&path)).unwrap();

    assert_eq!(report.curve.values(), full.curve.values(), "recovery must be exact");
    let weights = |t: &Trainer| serde_json::to_string(&t.checkpoint().agents).unwrap();
    assert_eq!(weights(&faulted), weights(&straight));
    drop(guard);
}

/// Rollback-with-retry covers *consecutive* divergences while budget
/// remains: two NaNs in a row (the retried iteration faults again) spend
/// both default retries, and the third attempt — clean — still finishes
/// with exactly the un-faulted result.
#[test]
fn consecutive_divergences_within_budget_recover_exactly() {
    let guard = locked();
    let cfg = config(SamplerConfig::Uniform);
    assert_eq!(cfg.sentinel.max_retries, 2, "test assumes the default retry budget");

    let mut straight = Trainer::new(cfg).unwrap();
    let full = straight.train().unwrap();

    let path = tmp_path("double_nan_rollback.bin");
    let mut faulted = Trainer::new(cfg).unwrap();
    // Two armed entries on the same site queue up: the first fires on the
    // second update round (the episode-2 autosave exists by then), the
    // second fires on the retried iteration right after the rollback.
    failpoint::arm_after("update::tds", Fault::Nan, 1);
    failpoint::arm("update::tds", Fault::Nan);
    let report = faulted.train_with_autosave(Some(&path)).unwrap();

    assert_eq!(report.curve.values(), full.curve.values(), "recovery must be exact");
    let weights = |t: &Trainer| serde_json::to_string(&t.checkpoint().agents).unwrap();
    assert_eq!(weights(&faulted), weights(&straight));
    drop(guard);
}

/// Exhausting the rollback budget is a structured failure: with
/// `max_retries = 1`, a divergence on the retried iteration has no budget
/// left and surfaces as `TrainError::Diverged` carrying the sentinel's
/// report — even though a good checkpoint exists.
#[test]
fn consecutive_divergences_exhaust_the_rollback_budget() {
    let guard = locked();
    let mut cfg = config(SamplerConfig::Uniform);
    cfg.sentinel.max_retries = 1;
    let path = tmp_path("budget_exhausted.bin");
    let mut t = Trainer::new(cfg).unwrap();
    failpoint::arm_after("update::tds", Fault::Nan, 1);
    failpoint::arm("update::tds", Fault::Nan);
    let err = t.train_with_autosave(Some(&path)).unwrap_err();
    let TrainError::Diverged(report) = err else { panic!("wrong variant: {err:?}") };
    assert!(report.value.is_nan());
    assert_eq!(report.what, "TD error");
    drop(guard);
}

/// A divergence on the very first update: autosaving is *enabled* but has
/// not fired yet (the first update lands before the first autosave
/// interval elapses), so there is no prior checkpoint to roll back to and
/// the full retry budget is irrelevant — the report surfaces immediately.
#[test]
fn divergence_on_first_update_with_no_prior_checkpoint_aborts() {
    let guard = locked();
    let mut cfg = config(SamplerConfig::Uniform);
    // Warmup 64 at 25 steps/episode puts the first update in episode 3;
    // the first autosave would land after episode 5.
    cfg.checkpoint_every = 5;
    let path = tmp_path("first_update_divergence.bin");
    let mut t = Trainer::new(cfg).unwrap();
    failpoint::arm("update::tds", Fault::Nan);
    let err = t.train_with_autosave(Some(&path)).unwrap_err();
    let TrainError::Diverged(report) = err else { panic!("wrong variant: {err:?}") };
    assert!(report.value.is_nan());
    assert_eq!(report.what, "TD error");
    assert!(!path.exists(), "no autosave may have been written before the first update");
    drop(guard);
}

/// With no checkpoint to roll back to, the sentinel's report surfaces as
/// a structured `Diverged` error instead of a panic or a poisoned sum
/// tree.
#[test]
fn divergence_without_checkpoint_aborts_with_report() {
    let guard = locked();
    let mut cfg = config(SamplerConfig::Per);
    cfg.checkpoint_every = 0; // no autosaves, no rollback target
    let mut t = Trainer::new(cfg).unwrap();
    failpoint::arm("update::tds", Fault::Nan);
    let err = t.train().unwrap_err();
    let TrainError::Diverged(report) = err else { panic!("wrong variant: {err:?}") };
    assert!(report.value.is_nan());
    assert_eq!(report.what, "TD error");
    drop(guard);
}

/// An injected I/O failure during the checkpoint write surfaces as a
/// structured error and leaves any previous live file untouched.
#[test]
fn injected_io_error_fails_the_write_cleanly() {
    let guard = locked();
    let path = tmp_path("io_error.bin");
    let mut t = Trainer::new(config(SamplerConfig::Uniform)).unwrap();
    t.prefill(80).unwrap();
    let (ckpt, replay) = t.checkpoint_full().unwrap();
    write_checkpoint_file(&path, &ckpt, &replay).unwrap();

    failpoint::arm("checkpoint::write", Fault::Io);
    let err = write_checkpoint_file(&path, &ckpt, &replay).unwrap_err();
    assert!(matches!(err, TrainError::Checkpoint(_)));
    // The previous good file is still live and loadable.
    let (_, _, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(!from_prev);
    drop(guard);
}

// ---------------------------------------------------------------------
// Transport failpoint sites (`transport::send` / `transport::recv`)
// ---------------------------------------------------------------------

fn hb(seq: u64) -> Msg {
    Msg::Heartbeat(Heartbeat { worker_id: 9, seq, env_steps: 0, send_ns: 0 })
}

/// A bit flipped in a frame payload while in flight is caught by the
/// CRC-32 check on decode — and on the loopback (whole frames, never
/// resynced mid-stream) the *next* frame still decodes cleanly.
#[test]
fn transport_payload_bitflip_is_caught_by_crc() {
    let guard = locked();
    let (mut a, mut b) = loopback_pair(4, Duration::from_millis(100));
    // Bit 300 = byte 37: past the 16-byte header, inside the payload.
    failpoint::arm("transport::send", Fault::BitFlip(300));
    a.send(&hb(1)).unwrap();
    let err = b.recv_timeout(Duration::from_millis(100)).unwrap_err();
    assert!(matches!(err, DistError::CrcMismatch { .. }), "{err}");
    assert!(err.is_quarantine(), "corruption must be a quarantine, not a disconnect");
    a.send(&hb(2)).unwrap();
    let next = b.recv_timeout(Duration::from_millis(100)).unwrap();
    assert!(matches!(next, Msg::Heartbeat(h) if h.seq == 2), "stream must stay framed");
    drop(guard);
}

/// A bit flipped inside the header's magic is a typed `BadMagic`, not a
/// panic or a silent mis-parse.
#[test]
fn transport_header_bitflip_is_bad_magic() {
    let guard = locked();
    let (mut a, mut b) = loopback_pair(4, Duration::from_millis(100));
    failpoint::arm("transport::send", Fault::BitFlip(2));
    a.send(&hb(1)).unwrap();
    let err = b.recv_timeout(Duration::from_millis(100)).unwrap_err();
    assert!(matches!(err, DistError::BadMagic { .. }), "{err}");
    assert!(err.is_quarantine());
    drop(guard);
}

/// Truncation injected at the send site — both inside the header and
/// inside the payload — surfaces as the typed `Truncated` error.
#[test]
fn transport_truncation_is_detected() {
    let guard = locked();
    for cut in [10usize, 40] {
        let (mut a, mut b) = loopback_pair(4, Duration::from_millis(100));
        failpoint::arm("transport::send", Fault::Truncate(cut));
        a.send(&hb(1)).unwrap();
        let err = b.recv_timeout(Duration::from_millis(100)).unwrap_err();
        assert!(matches!(err, DistError::Truncated { .. }), "cut {cut}: {err}");
        assert!(err.is_quarantine());
    }
    drop(guard);
}

/// The binary `Params` frame has no text layer to trip over a flipped
/// bit, so the CRC is the only guard: a flip inside a weight or a cut in
/// the middle of the floats, injected at either transport site, must be
/// a typed quarantine — never a silently different parameter — and the
/// next clean broadcast must arrive exactly as sent.
#[test]
fn binary_params_corruption_is_caught_at_both_sites() {
    let guard = locked();
    let trainer = Trainer::new(config(SamplerConfig::Uniform)).unwrap();
    let sent = Params {
        epoch: 3,
        actors: ActorParams::capture(trainer.actors()),
        master_rng: Some([1, 2, 3, 4]),
        ctx: None,
    };
    let msg = Msg::Params(Box::new(sent.clone()));
    for site in ["transport::send", "transport::recv"] {
        // Bit 80_031: the sign bit of a float ~10 KB into the payload.
        for fault in [Fault::BitFlip(80_031), Fault::BitFlip(16 * 8 + 70), Fault::Truncate(30_000)]
        {
            let (mut a, mut b) = loopback_pair(4, Duration::from_millis(100));
            failpoint::arm(site, fault);
            a.send(&msg).unwrap();
            let err = b.recv_timeout(Duration::from_millis(100)).unwrap_err();
            match fault {
                Fault::Truncate(_) => assert!(matches!(err, DistError::Truncated { .. }), "{err}"),
                _ => assert!(matches!(err, DistError::CrcMismatch { .. }), "{site}: {err}"),
            }
            assert!(err.is_quarantine());
            a.send(&msg).unwrap();
            match b.recv_timeout(Duration::from_millis(100)).unwrap() {
                Msg::Params(p) => assert_eq!(*p, sent, "clean broadcast must arrive bit-exact"),
                other => panic!("wrong kind: {other:?}"),
            }
        }
    }
    drop(guard);
}

/// A torn write on a real socket (frame cut short, then the peer dies):
/// the receiver reads the committed header, sees the stream end before
/// the declared length, and reports `Truncated` — connection-fatal on a
/// byte stream, triggering the worker's reconnect path.
#[test]
fn transport_torn_write_on_socket_is_truncated() {
    let guard = locked();
    let (sa, sb) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    let mut a = StreamTransport::unix(sa);
    let mut b = StreamTransport::unix(sb);
    failpoint::arm("transport::send", Fault::Truncate(20));
    a.send(&hb(1)).unwrap();
    drop(a); // the peer dies mid-frame
    let err = b.recv_timeout(Duration::from_millis(200)).unwrap_err();
    assert!(matches!(err, DistError::Truncated { .. }), "{err}");
    drop(guard);
}

/// A delayed write (stalled transport) injected at either site slows the
/// exchange down but corrupts nothing: the frame arrives intact after the
/// injected stall.
#[test]
fn transport_delay_is_survived_intact() {
    let guard = locked();
    let (mut a, mut b) = loopback_pair(4, Duration::from_secs(1));
    failpoint::arm("transport::send", Fault::Delay(60));
    let t0 = std::time::Instant::now();
    a.send(&hb(5)).unwrap();
    let msg = b.recv_timeout(Duration::from_secs(1)).unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(60), "send must have stalled");
    assert!(matches!(msg, Msg::Heartbeat(h) if h.seq == 5));

    let (sa, sb) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    let mut sa = StreamTransport::unix(sa);
    let mut sb = StreamTransport::unix(sb);
    failpoint::arm("transport::recv", Fault::Delay(40));
    sa.send(&hb(6)).unwrap();
    let t0 = std::time::Instant::now();
    let msg = sb.recv_timeout(Duration::from_secs(1)).unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(40), "recv must have stalled");
    assert!(matches!(msg, Msg::Heartbeat(h) if h.seq == 6));
    drop(guard);
}

struct NoNewConns;

impl Acceptor for NoNewConns {
    fn try_accept(&mut self) -> Result<Option<Box<dyn Transport>>, DistError> {
        Ok(None)
    }
}

/// End to end: a corrupt `Steps` frame reaching a *serving learner* is
/// quarantined — counted against the sending worker, never ingested into
/// the replay store — and the run still completes.
#[test]
fn learner_quarantines_corrupt_steps_frame() {
    let guard = locked();
    let mut cfg = common::seeded_config(
        Algorithm::Maddpg,
        Task::PredatorPrey,
        3,
        SamplerConfig::Uniform,
        1,
        32,
        1024,
        91,
    );
    cfg.update_every = 10;
    let opts = LearnerOptions { recv_timeout: Duration::from_millis(5), ..Default::default() };
    let mut learner = Learner::new(cfg, opts).expect("learner builds");

    let (mut me, learner_end) = loopback_pair(64, Duration::from_secs(5));
    let speaker = std::thread::spawn(move || {
        me.send(&Msg::Hello(Hello { worker_id: 5, resume: false })).unwrap();
        let welcome = me.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(welcome, Msg::Welcome(_)));
        // The learner sends nothing between the Welcome and the first
        // update, so this frame is deterministically the one corrupted.
        failpoint::arm("transport::send", Fault::BitFlip(777));
        me.send(&Msg::Steps(Steps {
            worker_id: 5,
            epoch: 0,
            seq: 1,
            rows: common::zero_step_rows(1),
            rng: None,
            sync: false,
            ctx: None,
        }))
        .unwrap();
        me.send(&Msg::EpisodeEnd(EpisodeEnd {
            worker_id: 5,
            mean_reward: 0.0,
            master_rng: [1, 2, 3, 4],
            env_rng: [5, 6, 7, 8],
            env_steps: 1,
            samples_since_update: 0,
            ctx: None,
        }))
        .unwrap();
        loop {
            match me.recv_timeout(Duration::from_secs(10)) {
                Ok(Msg::Bye(_)) | Err(DistError::Disconnected) => break,
                Ok(_) => {}
                Err(DistError::Timeout { .. }) => {}
                Err(e) => panic!("speaker transport failed: {e}"),
            }
        }
    });

    learner
        .serve_free(vec![Box::new(learner_end)], &mut NoNewConns, None)
        .expect("serve completes despite the corrupt frame");
    speaker.join().unwrap();

    assert_eq!(learner.supervisor().total_quarantined(), 1);
    assert_eq!(
        learner.supervisor().worker(5).expect("worker known").quarantined,
        1,
        "quarantine attributed to the sending worker"
    );
    assert_eq!(learner.trainer().replay_len(), 0, "corrupt steps must never be ingested");
    assert_eq!(learner.episodes_recorded(), 1, "the run still completed");
    drop(guard);
}

/// Injected write corruption (torn write, bit flip) reaches the live file
/// but is caught by the CRC on load, which falls back to `.prev`.
#[test]
fn injected_corruption_is_caught_and_prev_restores() {
    let guard = locked();
    for fault in [Fault::Truncate(64), Fault::BitFlip(12_345)] {
        let path = tmp_path(&format!("corrupt_{fault:?}.bin"));
        let mut t = Trainer::new(config(SamplerConfig::Uniform)).unwrap();
        t.prefill(100).unwrap();
        let (ckpt, replay) = t.checkpoint_full().unwrap();
        write_checkpoint_file(&path, &ckpt, &replay).unwrap();

        failpoint::arm("checkpoint::write", fault);
        t.prefill(20).unwrap();
        let (ckpt2, replay2) = t.checkpoint_full().unwrap();
        write_checkpoint_file(&path, &ckpt2, &replay2).unwrap();

        let (loaded, loaded_replay, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
        assert!(from_prev, "{fault:?}: corruption must trigger the fallback");
        let mut fresh = Trainer::new(config(SamplerConfig::Uniform)).unwrap();
        fresh.restore_full(loaded, &loaded_replay).unwrap();
        assert_eq!(fresh.replay_len(), 100);
    }
    drop(guard);
}
