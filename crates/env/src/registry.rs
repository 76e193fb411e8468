//! The scenario plug-in registry: names, aliases and factories keyed by a
//! stable [`ScenarioId`].
//!
//! Training binaries and the distributed runtime used to hard-code a
//! three-variant `Task` enum; every crate that wanted a new scenario had
//! to edit that enum plus a `match` in each consumer. The registry
//! inverts this: scenarios register a **factory** (`agents →
//! Box<dyn Scenario>`) under a kebab-case name plus aliases, and
//! consumers construct environments through [`ScenarioId::build`] without
//! knowing the concrete type.
//!
//! The six built-in scenarios occupy fixed slots (0–5, in registration
//! order below) so a [`ScenarioId`] is stable across processes — it
//! crosses checkpoint and distributed-wire boundaries as its *name*
//! (see the serde impls), never as the raw index. Downstream crates can
//! add scenarios at startup with [`register_scenario`].

use crate::env::ParticleEnv;
use crate::scenario::Scenario;
use crate::vecenv::VecParticleEnv;
use serde::de::{Error as DeError, Parser};
use serde::ser::Writer;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Once, RwLock};

/// A scenario factory: builds a fresh scenario instance scaled to a total
/// trained-agent count.
pub type ScenarioFactory = fn(agents: usize) -> Box<dyn Scenario>;

struct Entry {
    name: &'static str,
    aliases: &'static [&'static str],
    factory: ScenarioFactory,
}

static REGISTRY: RwLock<Vec<Entry>> = RwLock::new(Vec::new());
static BUILTINS: Once = Once::new();

fn ensure_builtins() {
    BUILTINS.call_once(|| {
        use crate::scenarios::*;
        let mut reg = REGISTRY.write().expect("scenario registry poisoned");
        let mut add = |name, aliases, factory: ScenarioFactory| {
            reg.push(Entry { name, aliases, factory });
        };
        // Slot order is part of the public contract: the associated
        // constants on ScenarioId index straight into this list.
        add("predator-prey", &["pp", "simple_tag"], |n| {
            Box::new(simple_tag::PredatorPrey::new(simple_tag::PredatorPreyConfig::scaled(n)))
        });
        add("cooperative-navigation", &["cn", "simple_spread"], |n| {
            Box::new(simple_spread::CooperativeNavigation::new(
                simple_spread::CooperativeNavigationConfig::scaled(n),
            ))
        });
        add("physical-deception", &["pd", "simple_adversary"], |n| {
            Box::new(simple_adversary::PhysicalDeception::new(
                simple_adversary::PhysicalDeceptionConfig::scaled(n),
            ))
        });
        add("keep-away", &["ka", "push", "simple_push"], |n| {
            Box::new(simple_push::KeepAway::new(simple_push::KeepAwayConfig::scaled(n)))
        });
        add("cooperative-reference", &["cr", "ref", "simple_reference"], |n| {
            Box::new(simple_reference::CooperativeReference::new(
                simple_reference::CooperativeReferenceConfig::scaled(n),
            ))
        });
        add("world-comm", &["wc", "simple_world_comm"], |n| {
            Box::new(simple_world_comm::WorldComm::new(simple_world_comm::WorldCommConfig::scaled(
                n,
            )))
        });
    });
}

/// A registered scenario, cheap to copy and stable for the process
/// lifetime. Serializes as its kebab-case name so checkpoints and wire
/// messages survive registration-order changes.
///
/// The built-in scenarios are exposed as associated constants usable in
/// `match` patterns:
///
/// ```
/// use marl_env::registry::ScenarioId;
///
/// let id = ScenarioId::from_name("pp").unwrap();
/// assert_eq!(id, ScenarioId::PredatorPrey);
/// assert_eq!(id.label(), "predator-prey");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioId(u16);

#[allow(non_upper_case_globals)]
impl ScenarioId {
    /// `simple_tag`: predators chase scripted prey.
    pub const PredatorPrey: ScenarioId = ScenarioId(0);
    /// `simple_spread`: agents cover landmarks.
    pub const CooperativeNavigation: ScenarioId = ScenarioId(1);
    /// `simple_adversary`: good agents hide the goal from an adversary.
    pub const PhysicalDeception: ScenarioId = ScenarioId(2);
    /// `simple_push`: adversaries shove good agents off the goal.
    pub const KeepAway: ScenarioId = ScenarioId(3);
    /// `simple_reference`: goals known only to partners; speech required.
    pub const CooperativeReference: ScenarioId = ScenarioId(4);
    /// `simple_world_comm`: predator-prey with a broadcasting leader.
    pub const WorldComm: ScenarioId = ScenarioId(5);
}

impl ScenarioId {
    /// Resolves a scenario by name or alias (kebab name, short alias,
    /// MPE module name, or the legacy enum variant spelling).
    pub fn from_name(name: &str) -> Option<ScenarioId> {
        ensure_builtins();
        let reg = REGISTRY.read().expect("scenario registry poisoned");
        reg.iter()
            .position(|e| e.name == name || e.aliases.contains(&name))
            .map(|i| ScenarioId(i as u16))
    }

    /// Every registered scenario, in slot order.
    pub fn all() -> Vec<ScenarioId> {
        ensure_builtins();
        let reg = REGISTRY.read().expect("scenario registry poisoned");
        (0..reg.len() as u16).map(ScenarioId).collect()
    }

    /// The canonical kebab-case name.
    pub fn label(self) -> &'static str {
        ensure_builtins();
        let reg = REGISTRY.read().expect("scenario registry poisoned");
        reg[self.0 as usize].name
    }

    /// Registered aliases (not including the canonical name).
    pub fn aliases(self) -> &'static [&'static str] {
        ensure_builtins();
        let reg = REGISTRY.read().expect("scenario registry poisoned");
        reg[self.0 as usize].aliases
    }

    /// Builds a fresh scenario instance scaled to `agents` trained agents.
    pub fn build(self, agents: usize) -> Box<dyn Scenario> {
        ensure_builtins();
        let factory = {
            let reg = REGISTRY.read().expect("scenario registry poisoned");
            reg[self.0 as usize].factory
        };
        factory(agents)
    }

    /// Builds a one-world environment for this scenario (the K = 1
    /// [`VecParticleEnv`] behind an allocating interface).
    pub fn make_env(self, agents: usize, max_episode_len: usize, seed: u64) -> ParticleEnv {
        ParticleEnv::new(self.build(agents), max_episode_len, seed)
    }

    /// Builds a vectorized environment over `worlds` copies (each world
    /// holds its own scenario instance so per-episode state such as goal
    /// landmarks stays per-world).
    pub fn make_vec_env(
        self,
        agents: usize,
        max_episode_len: usize,
        seed: u64,
        worlds: usize,
    ) -> VecParticleEnv {
        let scenarios = (0..worlds).map(|_| self.build(agents)).collect();
        VecParticleEnv::new(scenarios, max_episode_len, seed)
    }
}

impl fmt::Debug for ScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Serialize for ScenarioId {
    fn serialize(&self, out: &mut Writer) {
        out.string(self.label());
    }
}

impl Deserialize for ScenarioId {
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, DeError> {
        let name = parser.parse_string()?;
        ScenarioId::from_name(&name)
            .ok_or_else(|| DeError::msg(format!("unknown scenario `{name}`")))
    }
}

/// Registers a new scenario under `name` (kebab-case by convention) with
/// optional aliases; returns its id. Intended for downstream crates that
/// bring their own [`Scenario`] implementations.
///
/// # Panics
///
/// Panics if `name` or any alias collides with an already-registered
/// scenario.
pub fn register_scenario(name: &str, aliases: &[&str], factory: ScenarioFactory) -> ScenarioId {
    ensure_builtins();
    let mut reg = REGISTRY.write().expect("scenario registry poisoned");
    let clash = reg.iter().any(|e| {
        e.name == name
            || e.aliases.contains(&name)
            || aliases.iter().any(|a| *a == e.name || e.aliases.contains(a))
    });
    if clash {
        // Release the lock before unwinding so a rejected registration
        // (exercised by tests) does not poison the global registry.
        drop(reg);
        panic!("scenario name or alias already registered: {name:?}");
    }
    // Names live for the process lifetime: the registry is global anyway,
    // and leaking lets ids hand out `&'static str` labels without locks
    // at every call site.
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let aliases: &'static [&'static str] = Box::leak(
        aliases
            .iter()
            .map(|a| -> &'static str { Box::leak(a.to_string().into_boxed_str()) })
            .collect::<Vec<_>>()
            .into_boxed_slice(),
    );
    let id = ScenarioId(reg.len() as u16);
    reg.push(Entry { name, aliases, factory });
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_occupy_fixed_slots() {
        assert_eq!(ScenarioId::from_name("predator-prey"), Some(ScenarioId::PredatorPrey));
        assert_eq!(
            ScenarioId::from_name("cooperative-navigation"),
            Some(ScenarioId::CooperativeNavigation)
        );
        assert_eq!(
            ScenarioId::from_name("physical-deception"),
            Some(ScenarioId::PhysicalDeception)
        );
        assert_eq!(ScenarioId::from_name("keep-away"), Some(ScenarioId::KeepAway));
        assert_eq!(
            ScenarioId::from_name("cooperative-reference"),
            Some(ScenarioId::CooperativeReference)
        );
        assert_eq!(ScenarioId::from_name("world-comm"), Some(ScenarioId::WorldComm));
        assert!(ScenarioId::all().len() >= 6);
    }

    #[test]
    fn aliases_and_legacy_spellings_resolve() {
        for (alias, want) in [
            ("pp", ScenarioId::PredatorPrey),
            ("simple_tag", ScenarioId::PredatorPrey),
            ("cn", ScenarioId::CooperativeNavigation),
            ("pd", ScenarioId::PhysicalDeception),
            ("simple_push", ScenarioId::KeepAway),
            ("ref", ScenarioId::CooperativeReference),
            ("wc", ScenarioId::WorldComm),
            ("simple_world_comm", ScenarioId::WorldComm),
        ] {
            assert_eq!(ScenarioId::from_name(alias), Some(want), "{alias}");
        }
        assert_eq!(ScenarioId::from_name("nope"), None);
    }

    fn to_json(id: ScenarioId) -> String {
        let mut w = Writer::new();
        id.serialize(&mut w);
        w.into_string()
    }

    fn from_json(s: &str) -> Result<ScenarioId, DeError> {
        ScenarioId::deserialize(&mut Parser::new(s))
    }

    #[test]
    fn serde_round_trips_by_name() {
        for id in ScenarioId::all() {
            let json = to_json(id);
            assert_eq!(json, format!("\"{}\"", id.label()));
            assert_eq!(from_json(&json).unwrap(), id);
        }
        // Only names and aliases resolve, not the Rust constant's spelling.
        assert!(from_json("\"PredatorPrey\"").is_err());
        assert!(from_json("\"bogus\"").is_err());
    }

    #[test]
    fn match_patterns_work_on_ids() {
        let id = ScenarioId::from_name("cn").unwrap();
        let label = match id {
            ScenarioId::PredatorPrey => "pp",
            ScenarioId::CooperativeNavigation => "cn",
            _ => "other",
        };
        assert_eq!(label, "cn");
    }

    #[test]
    fn factories_build_scaled_scenarios() {
        let env = ScenarioId::PredatorPrey.make_env(3, 25, 0);
        assert_eq!(env.trained_agents(), 3);
        let env = ScenarioId::WorldComm.make_env(3, 25, 0);
        assert_eq!(env.trained_agents(), 3);
        assert_eq!(env.action_spaces()[0].segments(), &[5, 4]);
        let vec = ScenarioId::CooperativeReference.make_vec_env(2, 25, 0, 4);
        assert_eq!(vec.world_count(), 4);
        assert_eq!(vec.scenario_name(), "cooperative-reference");
    }

    #[test]
    fn plugin_registration_extends_the_suite() {
        // Idempotence guard: the test may run with others that also touch
        // the registry, so pick a unique name.
        let id = register_scenario("test-plugin-spread", &["tps"], |n| {
            Box::new(crate::scenarios::simple_spread::CooperativeNavigation::new(
                crate::scenarios::simple_spread::CooperativeNavigationConfig::scaled(n),
            ))
        });
        assert_eq!(ScenarioId::from_name("tps"), Some(id));
        assert_eq!(id.label(), "test-plugin-spread");
        let env = id.make_env(3, 25, 0);
        assert_eq!(env.trained_agents(), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_is_rejected() {
        register_scenario("predator-prey", &[], |n| {
            Box::new(crate::scenarios::simple_tag::PredatorPrey::new(
                crate::scenarios::simple_tag::PredatorPreyConfig::scaled(n),
            ))
        });
    }
}
