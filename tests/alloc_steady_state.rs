//! Proves the zero-allocation claims of the update pipeline and the
//! rollout loop: once the persistent scratch arenas are warmed up,
//! `update_all_trainers` and whole `run_episode` calls (K = 1 and K = 4)
//! perform no heap allocations on the serial path, under both address
//! maps of the replay store (agent-major and time-major).
//!
//! A counting wrapper around the system allocator is armed only around
//! the measured updates, so test-harness and warm-up allocations are not
//! counted. `update_threads > 1` spawns scoped threads and is exempt by
//! design; this test pins it to 1.
//!
//! Arming is per thread: only the measuring test's own thread is
//! counted, so other tests' warm-ups and the harness's result printing
//! cannot land in an armed window.

use marl_repro::algo::{Algorithm, LayoutMode, Task};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are counted.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// This thread's counted `(allocs, reallocs)`.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(allocs: u64, reallocs: u64) {
    if ARMED.with(Cell::get) {
        COUNTS.with(|c| {
            let (a, r) = c.get();
            c.set((a + allocs, r + reallocs));
        });
    }
}

/// Runs `f` with this thread's allocations counted; returns
/// `(allocs, reallocs)`.
fn counting(f: impl FnOnce()) -> (u64, u64) {
    COUNTS.with(|c| c.set((0, 0)));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    COUNTS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(0, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs warmed-up steady-state updates with the allocator armed and
/// asserts no heap traffic. `telemetry` optionally attaches a live
/// [`marl_repro::obs::Telemetry`] first — span recording, metric
/// atomics, and hardware-counter windows must all stay off the heap.
///
/// Besides MADDPG predator-prey, MATD3 world-comm: its agents differ in
/// action shape (the leader's heads `[5, 4]`, the others' `[5]`), so the
/// one update lane's scratch serves several shapes in turn.
fn assert_zero_alloc_updates(telemetry: bool, seed: u64) {
    for (algorithm, task) in
        [(Algorithm::Maddpg, Task::PredatorPrey), (Algorithm::Matd3, Task::WorldComm)]
    {
        for layout in [LayoutMode::PerAgent, LayoutMode::Interleaved] {
            assert_zero_alloc_updates_on(algorithm, task, layout, telemetry, seed);
        }
    }
}

fn assert_zero_alloc_updates_on(
    algorithm: Algorithm,
    task: Task,
    layout: LayoutMode,
    telemetry: bool,
    seed: u64,
) {
    use marl_repro::algo::{TrainConfig, Trainer};
    use marl_repro::core::SamplerConfig;

    let cfg = TrainConfig::paper_defaults(algorithm, task, 3)
        .with_batch_size(32)
        .with_buffer_capacity(4096)
        .with_sampler(SamplerConfig::Uniform)
        .with_layout(layout)
        .with_update_threads(1)
        .with_seed(seed);
    let mut t = Trainer::new(cfg).unwrap();
    if telemetry {
        // No sinks: sinks flush only at episode boundaries, which this
        // test never crosses, but the recording hot path is identical.
        let cfg = marl_repro::obs::TelemetryConfig {
            hw_counters: true, // null fallback when perf_event is denied
            ..marl_repro::obs::TelemetryConfig::default()
        };
        let tel = std::sync::Arc::new(marl_repro::obs::Telemetry::new(&cfg).unwrap());
        t.attach_telemetry(tel);
    }
    t.prefill(256).unwrap();

    // Warm-up updates size every scratch buffer and resolve one-time lazy
    // state (Adam moment matrices, the kernel's first-use resolution,
    // MLP activation caches).
    for _ in 0..3 {
        t.update_all_trainers().unwrap();
    }

    let counts = counting(|| {
        for _ in 0..5 {
            t.update_all_trainers().unwrap();
        }
    });
    assert_eq!(
        counts,
        (0, 0),
        "steady-state update_all_trainers must not touch the heap \
         ({algorithm:?} {task:?}, {layout:?}, telemetry: {telemetry})"
    );
    assert_eq!(t.update_iterations(), 8);
}

/// The rollout counterpart, at K = 1 and K = 4 worlds: once the first
/// episode has sized the rollout buffers (obs/one-hot matrices,
/// per-world buffers) and the update path has run, whole episodes —
/// batched inference, SoA physics steps, replay pushes, and the scheduled
/// updates they trigger — run without heap traffic.
fn assert_zero_alloc_rollout(telemetry: bool, seed: u64) {
    use marl_repro::algo::{TrainConfig, Trainer};
    use marl_repro::core::SamplerConfig;

    let cells = [1usize, 4]
        .into_iter()
        .flat_map(|k| [LayoutMode::PerAgent, LayoutMode::Interleaved].map(|l| (k, l)));
    for (k, layout) in cells {
        let mut cfg = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
            .with_batch_size(32)
            .with_buffer_capacity(4096)
            .with_sampler(SamplerConfig::Uniform)
            .with_layout(layout)
            .with_update_threads(1)
            .with_num_envs(k)
            .with_seed(seed);
        cfg.warmup = 64;
        let mut t = Trainer::new(cfg).unwrap();
        if telemetry {
            let cfg = marl_repro::obs::TelemetryConfig {
                hw_counters: true, // null fallback when perf_event is denied
                ..marl_repro::obs::TelemetryConfig::default()
            };
            let tel = std::sync::Arc::new(marl_repro::obs::Telemetry::new(&cfg).unwrap());
            t.attach_telemetry(tel);
        }

        // Warm-up episodes: size the rollout buffers and pass warmup so
        // the update path runs (14 × 25 × K joint steps).
        for _ in 0..14 {
            t.run_episode().unwrap();
        }
        assert!(t.update_iterations() > 0, "K={k}: warm-up must reach the update path");

        let counts = counting(|| {
            for _ in 0..2 {
                t.run_episode().unwrap();
            }
        });
        assert_eq!(
            counts,
            (0, 0),
            "steady-state rollout at K={k} must not touch the heap \
             ({layout:?}, telemetry: {telemetry})"
        );
    }
}

#[test]
fn steady_state_update_allocates_nothing() {
    assert_zero_alloc_updates(false, 7);
}

#[test]
fn steady_state_update_allocates_nothing_with_telemetry() {
    assert_zero_alloc_updates(true, 7);
}

#[test]
fn steady_state_vec_rollout_allocates_nothing() {
    assert_zero_alloc_rollout(false, 9);
}

#[test]
fn steady_state_vec_rollout_allocates_nothing_with_telemetry() {
    assert_zero_alloc_rollout(true, 9);
}
