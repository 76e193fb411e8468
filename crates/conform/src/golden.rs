//! Golden-trace regression: text serialization, parsing, and diffing of
//! [`UpdateDigest`] chains against committed `results/golden/*.trace`
//! files.
//!
//! A golden trace is a plain-text file — one line per update iteration,
//! every checksum in fixed-width hex — so behaviour drift shows up as a
//! readable one-line diff in review. Its `# config:` header is the
//! recorded [`TrainConfig`] as JSON (the form checkpoints store), so a
//! trace names the exact run that produced it, and a trace whose header
//! no longer matches its run's configuration fails like a digest drift.
//! Traces are compared with [`first_divergence`], which names the
//! earliest disagreeing update step *and* which digest field drifted
//! (sample indices? run lengths? IS weights? losses? TD errors?
//! parameters?), turning "the numbers changed" into "the IS weights
//! changed at update 3".
//!
//! Regeneration is explicit: running the golden suite with the
//! [`BLESS_ENV`] environment variable set (`MARL_BLESS=1`) rewrites the
//! committed files instead of comparing, which is how an *intended*
//! numeric change is recorded. CI guards that re-blessed goldens come
//! with a `CHANGELOG.md` entry.

use marl_algo::config::TrainConfig;
use marl_algo::error::TrainError;
use marl_algo::trace::{UpdateDigest, UpdateTraceRecorder, DIGEST_FIELDS};
use marl_algo::trainer::Trainer;
use std::path::{Path, PathBuf};

/// First line of every golden trace file.
pub const TRACE_HEADER: &str = "# marl-conform golden trace v1";

/// Environment variable that switches the golden suite from *compare*
/// to *regenerate*.
pub const BLESS_ENV: &str = "MARL_BLESS";

/// Whether the current process was asked to re-bless golden traces
/// (`MARL_BLESS` set to anything but the empty string or `0`).
pub fn bless_requested() -> bool {
    std::env::var(BLESS_ENV).map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// The committed golden-trace directory (`results/golden/` at the
/// workspace root), resolved relative to this crate so the suite works
/// from any working directory.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/conform sits two levels below the workspace root")
        .join("results")
        .join("golden")
}

/// Trains `cfg` with an attached [`UpdateTraceRecorder`] and returns the
/// recorded per-update digests.
///
/// The run uses whatever kernel the process resolves: scalar and SIMD
/// compute the same bits, so a trace does not depend on the host's
/// vector units.
///
/// # Errors
///
/// Propagates any [`TrainError`] from construction or training.
pub fn record_run(cfg: TrainConfig) -> Result<Vec<UpdateDigest>, TrainError> {
    let mut trainer = Trainer::new(cfg)?;
    trainer.attach_trace_recorder(UpdateTraceRecorder::new());
    trainer.train()?;
    Ok(trainer.detach_trace_recorder().expect("recorder attached above").into_digests())
}

/// Prefix of the header line that carries the recorded configuration.
const CONFIG_PREFIX: &str = "# config: ";

/// Serializes digests into the golden trace text format, headed by the
/// configuration they were recorded under.
pub fn serialize_trace(config: &TrainConfig, digests: &[UpdateDigest]) -> String {
    let json = serde_json::to_string(config).expect("TrainConfig serializes");
    let mut out = String::with_capacity(80 * (digests.len() + 2) + json.len());
    out.push_str(TRACE_HEADER);
    out.push('\n');
    out.push_str(CONFIG_PREFIX);
    out.push_str(&json);
    out.push('\n');
    for d in digests {
        out.push_str(&format!("step={}", d.step));
        for f in DIGEST_FIELDS {
            out.push_str(&format!(" {f}={:08x}", d.field(f)));
        }
        out.push_str(&format!(" chain={:08x}\n", d.chain));
    }
    out
}

/// Parses a golden trace file back into its configuration and digests.
///
/// # Errors
///
/// Returns a message naming the offending line for malformed input, or
/// the missing `# config:` header.
pub fn parse_trace(text: &str) -> Result<(TrainConfig, Vec<UpdateDigest>), String> {
    let mut config = None;
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = i + 1;
        if let Some(json) = line.strip_prefix(CONFIG_PREFIX) {
            let cfg = serde_json::from_str(json)
                .map_err(|e| format!("line {lineno}: bad config header: {e}"))?;
            config = Some(cfg);
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut d = UpdateDigest {
            step: 0,
            indices: 0,
            runs: 0,
            weights: 0,
            losses: 0,
            tds: 0,
            params: 0,
            chain: 0,
        };
        let mut seen = 0usize;
        for tok in line.split_whitespace() {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: malformed token {tok:?}"))?;
            let hex = |v: &str| {
                u32::from_str_radix(v, 16)
                    .map_err(|e| format!("line {lineno}: bad hex for {key}: {e}"))
            };
            match key {
                "step" => {
                    d.step =
                        val.parse().map_err(|e| format!("line {lineno}: bad step {val:?}: {e}"))?;
                }
                "indices" => d.indices = hex(val)?,
                "runs" => d.runs = hex(val)?,
                "weights" => d.weights = hex(val)?,
                "losses" => d.losses = hex(val)?,
                "tds" => d.tds = hex(val)?,
                "params" => d.params = hex(val)?,
                "chain" => d.chain = hex(val)?,
                other => return Err(format!("line {lineno}: unknown field {other:?}")),
            }
            seen += 1;
        }
        if seen != 2 + DIGEST_FIELDS.len() {
            return Err(format!(
                "line {lineno}: expected {} fields, found {seen}",
                2 + DIGEST_FIELDS.len()
            ));
        }
        out.push(d);
    }
    let config = config.ok_or_else(|| format!("no `{}` header line", CONFIG_PREFIX.trim_end()))?;
    Ok((config, out))
}

/// Reads and parses the committed golden trace `name`.
///
/// # Errors
///
/// A message naming the file when it is missing or malformed.
pub fn load_trace(name: &str) -> Result<(TrainConfig, Vec<UpdateDigest>), String> {
    let path = golden_dir().join(format!("{name}.trace"));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "missing golden trace {}: {e}; generate with `MARL_BLESS=1 cargo test -q golden`",
            path.display()
        )
    })?;
    parse_trace(&text).map_err(|e| format!("golden trace {name}: {e}"))
}

/// The first point at which two traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The traces disagree at update `step` in digest field `field`.
    Field {
        /// Update iteration of the first disagreement.
        step: u64,
        /// Which digest field drifted (`"step"`, one of
        /// [`DIGEST_FIELDS`], or `"chain"`).
        field: &'static str,
        /// Golden value.
        expected: u64,
        /// Recorded value.
        actual: u64,
    },
    /// Every common update matches but the traces have different lengths.
    Length {
        /// Golden update count.
        expected: usize,
        /// Recorded update count.
        actual: usize,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Field { step, field, expected, actual } => write!(
                f,
                "first divergence at update step {step}: field `{field}` expected \
                 {expected:#010x}, got {actual:#010x}"
            ),
            Divergence::Length { expected, actual } => {
                write!(f, "trace length mismatch: expected {expected} updates, got {actual}")
            }
        }
    }
}

/// Finds the first divergence between a golden trace and a recorded one.
///
/// Field digests are independent per update while the chain folds in all
/// history, so the earliest differing update is located by the earliest
/// pair that differs at all, and within it the named field pinpoints
/// *which update input or output* drifted.
pub fn first_divergence(expected: &[UpdateDigest], actual: &[UpdateDigest]) -> Option<Divergence> {
    for (e, a) in expected.iter().zip(actual.iter()) {
        if e.step != a.step {
            return Some(Divergence::Field {
                step: a.step,
                field: "step",
                expected: e.step,
                actual: a.step,
            });
        }
        for f in DIGEST_FIELDS.into_iter().chain(["chain"]) {
            if e.field(f) != a.field(f) {
                return Some(Divergence::Field {
                    step: e.step,
                    field: f,
                    expected: e.field(f) as u64,
                    actual: a.field(f) as u64,
                });
            }
        }
    }
    if expected.len() != actual.len() {
        return Some(Divergence::Length { expected: expected.len(), actual: actual.len() });
    }
    None
}

/// Compares a run — its configuration and recorded digests — against the
/// committed golden trace `name` (or rewrites it when
/// [`bless_requested`]).
///
/// # Errors
///
/// Returns a human-readable report when the trace is missing or
/// unparsable, when its header is not `config`, or — naming the first
/// divergent update step and field — when the digests diverge.
pub fn check_or_bless(
    name: &str,
    config: &TrainConfig,
    digests: &[UpdateDigest],
) -> Result<(), String> {
    let rebless = "If this change is intended, re-bless with `MARL_BLESS=1 cargo test -q golden` \
                   and record it in CHANGELOG.md.";
    if bless_requested() {
        let dir = golden_dir();
        let path = dir.join(format!("{name}.trace"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        std::fs::write(&path, serialize_trace(config, digests))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        return Ok(());
    }
    let (recorded, expected) = load_trace(name)?;
    if recorded != *config {
        let json = |c: &TrainConfig| serde_json::to_string(c).expect("TrainConfig serializes");
        return Err(format!(
            "golden trace {name}: the `# config:` header is not this run's configuration\n  \
             header: {}\n  run:    {}\n{rebless}",
            json(&recorded),
            json(config)
        ));
    }
    match first_divergence(&expected, digests) {
        None => Ok(()),
        Some(d) => Err(format!("golden trace {name}: {d}. {rebless}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(step: u64, salt: u32) -> UpdateDigest {
        UpdateDigest {
            step,
            indices: salt,
            runs: salt.wrapping_add(1),
            weights: salt.wrapping_add(2),
            losses: salt.wrapping_add(3),
            tds: salt.wrapping_add(4),
            params: salt.wrapping_add(5),
            chain: salt.wrapping_add(6),
        }
    }

    fn config() -> TrainConfig {
        use marl_algo::config::{Algorithm, Task};
        TrainConfig::paper_defaults(Algorithm::Matd3, Task::PredatorPrey, 3).with_seed(4242)
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let digests = vec![digest(0, 0xdead_0000), digest(1, 0xbeef_0000)];
        let text = serialize_trace(&config(), &digests);
        assert!(text.starts_with(TRACE_HEADER));
        assert_eq!(
            text.lines().nth(1),
            Some(&*format!("# config: {}", serde_json::to_string(&config()).unwrap()))
        );
        assert_eq!(parse_trace(&text).unwrap(), (config(), digests));
    }

    #[test]
    fn the_header_tells_apart_configs_that_differ_in_any_field() {
        let base = serialize_trace(&config(), &[]);
        let mut annealed = config();
        annealed.exploration = marl_algo::explore::ExplorationSchedule::annealed(500);
        assert_ne!(serialize_trace(&annealed, &[]), base);
        assert_ne!(serialize_trace(&config().with_update_threads(2), &[]), base);
        let err = parse_trace(&base.replace("# config: {", "# config: [")).unwrap_err();
        assert!(err.contains("line 2: bad config header"), "{err}");
        let err = parse_trace("# marl-conform golden trace v1\n").unwrap_err();
        assert!(err.contains("no `# config:` header"), "{err}");
    }

    #[test]
    fn parse_names_the_offending_line() {
        let err = parse_trace("# header\nstep=0 indices=zz").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_trace("step=0 indices=1 bogus=2").unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        let err = parse_trace("step=0 indices=1").unwrap_err();
        assert!(err.contains("expected 8 fields"), "{err}");
    }

    /// A trace recorded while `TrainConfig` still had `sampling_threads`
    /// names it in its header; such a header is refused, naming the field.
    #[test]
    fn a_header_naming_sampling_threads_is_refused() {
        let text = serialize_trace(&config(), &[]);
        let old =
            text.replacen("\"update_threads\":", "\"sampling_threads\":1,\"update_threads\":", 1);
        assert_ne!(old, text);
        let err = parse_trace(&old).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("unknown field `sampling_threads`"),
            "{err}"
        );
    }

    #[test]
    fn divergence_names_step_and_field() {
        let a = vec![digest(0, 10), digest(1, 20), digest(2, 30)];
        let mut b = a.clone();
        b[1].weights ^= 1;
        b[1].chain ^= 1;
        b[2].chain ^= 1;
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(
            d,
            Divergence::Field {
                step: 1,
                field: "weights",
                expected: a[1].weights as u64,
                actual: b[1].weights as u64,
            }
        );
        let msg = d.to_string();
        assert!(msg.contains("update step 1") && msg.contains("`weights`"), "{msg}");
    }

    #[test]
    fn divergence_on_length_and_agreement() {
        let a = vec![digest(0, 1), digest(1, 2)];
        assert_eq!(first_divergence(&a, &a), None);
        let b = vec![digest(0, 1)];
        assert_eq!(first_divergence(&a, &b), Some(Divergence::Length { expected: 2, actual: 1 }));
    }

    #[test]
    fn golden_dir_is_workspace_results() {
        let dir = golden_dir();
        assert!(dir.ends_with("results/golden"), "{}", dir.display());
        assert!(!dir.to_string_lossy().contains("crates"), "{}", dir.display());
    }
}
