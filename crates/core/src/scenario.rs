//! The scenario registry: every experiment this repository knows how to run, by name.
//!
//! A [`Scenario`] bundles everything one data point needs — the monitored
//! [`PaperProperty`], the process count, the workload shape
//! ([`ArrivalModel`] / [`CommTopology`] via [`ExperimentConfig`]) and the
//! [`MonitorOptions`] — under a stable name.  The [`ScenarioRegistry`] is the single
//! source of truth consumed by the `experiments` binary (`--target sweep`,
//! `--list-scenarios`), the Chapter 5 figure helpers ([`crate::figures`]) and the JSON results pipeline
//! ([`crate::results`]), so a new workload shape added here is immediately
//! measurable everywhere.
//!
//! [`ScenarioRegistry::standard`] covers the paper's evaluation (Chapter 5: six
//! properties × 2–5 processes under normally-distributed workloads, plus the
//! communication-frequency sweep of Fig. 5.9) and extends it with shapes the paper
//! does not measure: bursty event arrivals, hotspot / ring / pipeline communication
//! topologies, large-N runs up to 8 processes — the **throughput family**
//! ([`ScenarioFamily::Throughput`]): hundreds to a thousand concurrent sessions
//! streamed through the online sharded `dlrv-stream` runtime, sized by
//! [`StreamParams`] and run by `experiments --target throughput` — and the
//! **overhead family** ([`ScenarioFamily::Overhead`]): every property as an A/B pair
//! with the §4.3 optimization suite on vs. off, run by `experiments --target
//! overhead` to reproduce the paper's message/queueing/memory overhead trends.

use crate::deploy::{run_deploy, DeployParams, DeployTransport};
use crate::experiment::{run_experiment_with_options, ExperimentConfig, ExperimentResult};
use crate::fleet::FleetParams;
use crate::properties::PaperProperty;
use crate::spec::PropertySpec;
use crate::throughput::run_streamed;
use dlrv_monitor::MonitorOptions;
use dlrv_net::FaultSpec;
use dlrv_trace::{ArrivalModel, CommTopology};
use std::fmt;

/// Which part of the evaluation a scenario belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioFamily {
    /// The paper's main sweep (Figures 5.4–5.8): every property × process count under
    /// the default workload.
    Paper,
    /// The communication-frequency sweep of Fig. 5.9.
    CommFrequency,
    /// Workload shapes beyond the paper: bursty arrivals, non-broadcast topologies,
    /// large process counts.
    Extended,
    /// Online ingestion benchmarks: many concurrent sessions streamed through the
    /// sharded `dlrv-stream` runtime (`--target throughput`).
    Throughput,
    /// §4.3 overhead A/B pairs: every property with the optimization suite on and
    /// off, so `--target overhead` reproduces the paper's message/queueing/memory
    /// trends (`--target overhead`).
    Overhead,
    /// User-style LTL properties beyond the paper's six: request–response, mutual
    /// exclusion, precedence, nested until, and multi-process stress formulas, all
    /// specified as [`PropertySpec`] LTL text (`--target custom`).
    Custom,
    /// Real-socket multi-process deployments: one `monitord` OS process per
    /// monitor, tokens over TCP/Unix sockets, optionally through the
    /// deterministic fault-injection shim (`--target deploy`).
    Deploy,
    /// Fleet monitoring: N properties monitored in one pass over a shared
    /// stream — each event decoded once, clocks interned once, tokens of all
    /// members batched onto shared monitoring messages (`--target fleet`).
    Fleet,
}

impl ScenarioFamily {
    /// Every family, in registry order.
    pub const ALL: [ScenarioFamily; 8] = [
        ScenarioFamily::Paper,
        ScenarioFamily::CommFrequency,
        ScenarioFamily::Extended,
        ScenarioFamily::Throughput,
        ScenarioFamily::Overhead,
        ScenarioFamily::Custom,
        ScenarioFamily::Deploy,
        ScenarioFamily::Fleet,
    ];

    /// Stable lowercase name used in listings and the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioFamily::Paper => "paper",
            ScenarioFamily::CommFrequency => "comm-frequency",
            ScenarioFamily::Extended => "extended",
            ScenarioFamily::Throughput => "throughput",
            ScenarioFamily::Overhead => "overhead",
            ScenarioFamily::Custom => "custom",
            ScenarioFamily::Deploy => "deploy",
            ScenarioFamily::Fleet => "fleet",
        }
    }

    /// The family with the given [`name`](Self::name), if any.
    pub fn from_name(name: &str) -> Option<ScenarioFamily> {
        Self::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Streaming-engine parameters of a throughput scenario.  The stream is always
/// binary frames, and every mailbox and batch is sized by
/// [`StreamConfig::default`](dlrv_stream::StreamConfig::default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamParams {
    /// Number of concurrent monitored sessions.
    pub n_sessions: usize,
    /// Number of worker shards.
    pub n_shards: usize,
}

impl StreamParams {
    /// `n_sessions` sessions over `n_shards` shards.
    pub fn sized(n_sessions: usize, n_shards: usize) -> Self {
        StreamParams {
            n_sessions,
            n_shards,
        }
    }
}

impl fmt::Display for ScenarioFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, reusable experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable name (`paper-A-n2`, `bursty-C-n4`, …), unique within a registry.
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Which part of the evaluation it belongs to.
    pub family: ScenarioFamily,
    /// Property, process count, workload shape and seeds.
    pub config: ExperimentConfig,
    /// Monitor-optimization switches (§4.3).
    pub options: MonitorOptions,
    /// What runs the monitors.
    pub substrate: Substrate,
}

/// What a scenario's monitors run on, with that substrate's parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Substrate {
    /// The classic offline experiment: the discrete-event simulator.
    Simulated,
    /// Many concurrent sessions streamed through the sharded runtime, sized by
    /// the params.
    Streamed(StreamParams),
    /// The member properties monitored in one pass over the sharded runtime;
    /// `config.property` is the lead member, used only to shape the workload.
    Fleet(StreamParams, FleetParams),
    /// One `monitord` OS process per monitor: which socket transport carries the
    /// monitors and the (optional) fault spec on every channel.
    Deployed(DeployParams),
}

impl Substrate {
    /// The runtime sizing of a streamed or fleet scenario.
    pub fn stream(&self) -> Option<&StreamParams> {
        match self {
            Substrate::Streamed(params) | Substrate::Fleet(params, _) => Some(params),
            Substrate::Simulated | Substrate::Deployed(_) => None,
        }
    }
}

impl Scenario {
    /// Runs the scenario — offline experiment, streamed run or process-fleet
    /// deployment, one simulation per seed, metrics averaged.
    ///
    /// Every family measures real elapsed time per seed (`wall_clock_secs`,
    /// `events_per_sec`) — offline runs inside `run_single`, streamed runs
    /// around `pump` + `shutdown` (workload generation and shard-thread start
    /// excluded), deploy runs across the whole fleet round trip — and the
    /// averaged metrics fold them like every other field.  Those and the other
    /// host-measured fields are for the terminal: the results document carries
    /// none of them, so everything it does carry is determined by the seeds.
    /// Panics when a deploy scenario's process fleet fails (daemon spawn,
    /// handshake or barrier errors); use [`run_deploy`] directly for a `Result`.
    pub fn run(&self) -> ExperimentResult {
        match &self.substrate {
            Substrate::Simulated => run_experiment_with_options(&self.config, self.options),
            Substrate::Streamed(params) => run_streamed(&self.config, params, None, self.options),
            Substrate::Fleet(params, fleet) => {
                run_streamed(&self.config, params, Some(fleet), self.options)
            }
            Substrate::Deployed(params) => {
                run_deploy(&self.config, self.options, params)
                    .unwrap_or_else(|e| panic!("deploy scenario `{}` failed: {e}", self.name))
                    .result
            }
        }
    }
}

/// An ordered, name-addressable collection of scenarios.
#[derive(Debug, Clone, Default)]
pub struct ScenarioRegistry {
    scenarios: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// The empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// The standard registry: the paper's sweeps plus the extended workload shapes.
    ///
    /// Names are stable; `BENCH_results.json` files produced by different commits are
    /// diffed scenario-by-scenario against them.
    pub fn standard() -> Self {
        let mut registry = ScenarioRegistry::new();

        // The paper's main sweep: Figures 5.4–5.8 report the same runs through
        // different metrics, so one scenario per (property, process count) suffices.
        for property in PaperProperty::ALL {
            for n in [2usize, 3, 4, 5] {
                registry.push(Scenario {
                    name: format!("paper-{}-n{}", property.name(), n),
                    description: format!(
                        "Paper sweep (Figs 5.4-5.8): property {}, {} processes, \
                         N(3,1) arrivals, broadcast communication",
                        property.name(),
                        n
                    ),
                    family: ScenarioFamily::Paper,
                    config: ExperimentConfig::paper_default(property, n),
                    options: MonitorOptions::default(),
                    substrate: Substrate::Simulated,
                });
            }
        }

        // The communication-frequency sweep of Fig. 5.9 (4 processes, property C).
        for comm_mu in [Some(3.0), Some(6.0), Some(9.0), Some(15.0), None] {
            let (suffix, label) = match comm_mu {
                Some(mu) => (format!("mu{}", mu as u64), format!("Commmu = {mu} s")),
                None => ("nocomm".to_string(), "no communication".to_string()),
            };
            registry.push(Scenario {
                name: format!("commfreq-{suffix}"),
                description: format!(
                    "Communication-frequency sweep (Fig 5.9): property C, 4 processes, {label}"
                ),
                family: ScenarioFamily::CommFrequency,
                config: ExperimentConfig {
                    comm_mu,
                    ..ExperimentConfig::paper_default(PaperProperty::C, 4)
                },
                options: MonitorOptions::default(),
                substrate: Substrate::Simulated,
            });
        }

        // Extended shapes the paper does not measure.
        registry.push(Scenario {
            name: "bursty-C-n4".to_string(),
            description: "Bursty event arrivals: property C, 4 processes, bursts of 4 \
                          rapid events separated by long gaps"
                .to_string(),
            family: ScenarioFamily::Extended,
            config: ExperimentConfig {
                arrival: ArrivalModel::Bursty {
                    burst_len: 4,
                    intra_scale: 0.2,
                    gap_scale: 3.0,
                },
                ..ExperimentConfig::paper_default(PaperProperty::C, 4)
            },
            options: MonitorOptions::default(),
            substrate: Substrate::Simulated,
        });
        registry.push(Scenario {
            name: "hotspot-D-n4".to_string(),
            description: "Hotspot communication: property D, 4 processes, all messages \
                          funnel through process 0"
                .to_string(),
            family: ScenarioFamily::Extended,
            config: ExperimentConfig {
                topology: CommTopology::Hotspot { hub: 0 },
                ..ExperimentConfig::paper_default(PaperProperty::D, 4)
            },
            options: MonitorOptions::default(),
            substrate: Substrate::Simulated,
        });
        registry.push(Scenario {
            name: "ring-B-n4".to_string(),
            description: "Ring topology: property B, 4 processes, each process sends \
                          only to its ring successor"
                .to_string(),
            family: ScenarioFamily::Extended,
            config: ExperimentConfig {
                topology: CommTopology::Ring,
                ..ExperimentConfig::paper_default(PaperProperty::B, 4)
            },
            options: MonitorOptions::default(),
            substrate: Substrate::Simulated,
        });
        registry.push(Scenario {
            name: "pipeline-A-n4".to_string(),
            description: "Pipeline topology: property A, 4 processes, messages flow \
                          P0 -> P1 -> P2 -> P3"
                .to_string(),
            family: ScenarioFamily::Extended,
            config: ExperimentConfig {
                topology: CommTopology::Pipeline,
                ..ExperimentConfig::paper_default(PaperProperty::A, 4)
            },
            options: MonitorOptions::default(),
            substrate: Substrate::Simulated,
        });
        for n in [6usize, 8] {
            registry.push(Scenario {
                name: format!("large-B-n{n}"),
                description: format!(
                    "Large-N run: property B, {n} processes (beyond the paper's 5), \
                     broadcast communication"
                ),
                family: ScenarioFamily::Extended,
                config: ExperimentConfig::paper_default(PaperProperty::B, n),
                options: MonitorOptions::default(),
                substrate: Substrate::Simulated,
            });
        }
        registry.push(Scenario {
            name: "large-A-n6-ring".to_string(),
            description: "Large-N run: property A, 6 processes over a ring (bounded \
                          per-process fan-out at scale)"
                .to_string(),
            family: ScenarioFamily::Extended,
            config: ExperimentConfig {
                topology: CommTopology::Ring,
                ..ExperimentConfig::paper_default(PaperProperty::A, 6)
            },
            options: MonitorOptions::default(),
            substrate: Substrate::Simulated,
        });

        // The throughput family: online ingestion through the sharded streaming
        // runtime (`--target throughput`).  Sessions are deliberately small (few
        // processes, short traces) — the measured quantity is how many concurrent
        // sessions the engine sustains, not per-session lattice exploration.
        let stream_config = |property, n_processes, events| ExperimentConfig {
            events_per_process: events,
            seeds: vec![1],
            ..ExperimentConfig::paper_default(property, n_processes)
        };

        // Every property at a fixed engine size: ingestion cost per property shape.
        for property in PaperProperty::ALL {
            registry.push(Scenario {
                name: format!("throughput-{}-s200-sh4", property.name()),
                description: format!(
                    "Streaming ingestion: 200 concurrent sessions of property {}, \
                     3 processes, 4 shards",
                    property.name()
                ),
                family: ScenarioFamily::Throughput,
                config: stream_config(property, 3, 6),
                options: MonitorOptions::default(),
                substrate: Substrate::Streamed(StreamParams::sized(200, 4)),
            });
        }

        // Shard-count scaling at a fixed workload: the engine's speedup curve.
        for n_shards in [1usize, 2, 4, 8] {
            registry.push(Scenario {
                name: format!("throughput-C-s400-sh{n_shards}"),
                description: format!(
                    "Shard scaling: 400 concurrent sessions of property C, \
                     2 processes, {n_shards} shard(s)"
                ),
                family: ScenarioFamily::Throughput,
                config: stream_config(PaperProperty::C, 2, 8),
                options: MonitorOptions::default(),
                substrate: Substrate::Streamed(StreamParams::sized(400, n_shards)),
            });
        }

        // Workload shapes over the wire: bursty arrivals and a ring topology.
        registry.push(Scenario {
            name: "throughput-C-s200-sh4-bursty".to_string(),
            description: "Streaming ingestion under bursty arrivals: 200 sessions, \
                          property C, 4 shards"
                .to_string(),
            family: ScenarioFamily::Throughput,
            config: ExperimentConfig {
                arrival: ArrivalModel::Bursty {
                    burst_len: 4,
                    intra_scale: 0.2,
                    gap_scale: 3.0,
                },
                ..stream_config(PaperProperty::C, 3, 6)
            },
            options: MonitorOptions::default(),
            substrate: Substrate::Streamed(StreamParams::sized(200, 4)),
        });
        registry.push(Scenario {
            name: "throughput-B-s200-sh4-ring".to_string(),
            description: "Streaming ingestion over a ring topology: 200 sessions, \
                          property B, 4 shards"
                .to_string(),
            family: ScenarioFamily::Throughput,
            config: ExperimentConfig {
                topology: CommTopology::Ring,
                ..stream_config(PaperProperty::B, 3, 6)
            },
            options: MonitorOptions::default(),
            substrate: Substrate::Streamed(StreamParams::sized(200, 4)),
        });

        // The load test: a thousand concurrent sessions on eight shards.
        registry.push(Scenario {
            name: "throughput-B-s1000-sh8".to_string(),
            description: "Load test: 1000 concurrent sessions of property B, \
                          2 processes, 8 shards"
                .to_string(),
            family: ScenarioFamily::Throughput,
            config: stream_config(PaperProperty::B, 2, 6),
            options: MonitorOptions::default(),
            substrate: Substrate::Streamed(StreamParams::sized(1000, 8)),
        });

        // The §4.3 overhead family: every property at the paper's 4-process point,
        // once with the full optimization suite (the defaults) and once with every
        // switch off (the `--no-opt` baseline).  `--target overhead` prints the pairs
        // side by side; the JSON document carries one record per member, each
        // self-describing via its `options` object.  The workload is the paper
        // default scaled to an A/B-measurable size — both members of a pair always
        // use the *same* traces (same seeds), so any difference is the optimizations.
        for property in PaperProperty::ALL {
            for (suffix, options, label) in [
                ("opts", MonitorOptions::default(), "on"),
                ("noopt", MonitorOptions::ALL_OFF, "off"),
            ] {
                registry.push(Scenario {
                    name: format!("overhead-{}-{}", property.name(), suffix),
                    description: format!(
                        "§4.3 overhead A/B: property {}, 4 processes, N(3,1) arrivals, \
                         broadcast communication, optimizations {label}",
                        property.name()
                    ),
                    family: ScenarioFamily::Overhead,
                    config: ExperimentConfig {
                        events_per_process: 12,
                        ..ExperimentConfig::paper_default(property, 4)
                    },
                    options,
                    substrate: Substrate::Simulated,
                });
            }
        }

        // The custom family: user-style LTL specs routed through the same pipeline
        // as everything else (`--target custom`).  Each entry is a classic pattern
        // from the runtime-verification literature over free-form atom names, plus
        // a multi-process stress formula; the `PropertySpec` layer binds the atoms
        // to the two-channel workloads via the registry-derived `AtomLayout`.
        let custom = |suffix: &str, ltl: &str, n: usize, events: usize, desc: &str| Scenario {
            name: format!("custom-{suffix}"),
            description: format!("Custom LTL property: {desc} — `{ltl}`"),
            family: ScenarioFamily::Custom,
            config: ExperimentConfig {
                events_per_process: events,
                ..ExperimentConfig::paper_default(
                    PropertySpec::parse_named(suffix, ltl)
                        .expect("registry formulas are valid LTL"),
                    n,
                )
            },
            options: MonitorOptions::default(),
            substrate: Substrate::Simulated,
        };
        registry.push(custom(
            "reqack-n2",
            "G(P0.req -> F P1.ack)",
            2,
            12,
            "request-response: every request of P0 is eventually acknowledged by P1",
        ));
        registry.push(custom(
            "reqack-all-n3",
            "G(P0.req -> F (P1.ack && P2.ack))",
            3,
            12,
            "fan-out request-response: both replicas must acknowledge",
        ));
        registry.push(custom(
            "mutex-n2",
            "G(!(P0.cs && P1.cs))",
            2,
            12,
            "mutual exclusion: the two critical sections are never concurrent",
        ));
        registry.push(custom(
            "precedence-n2",
            "(!P1.done) W P0.init",
            2,
            12,
            "precedence: P1 does not finish before P0 initialized",
        ));
        registry.push(custom(
            "nested-until-n3",
            "G(P0.p U (P1.p U P2.p))",
            3,
            10,
            "nested until obligations across three processes",
        ));
        registry.push(custom(
            "release-n2",
            "P1.ok R (!P0.stop)",
            2,
            12,
            "release: P0 may not stop until P1 signals ok",
        ));
        registry.push(custom(
            "mixed-n4",
            "F(P0.p && P1.p && P2.p && P3.p) && G(P0.q U P1.q)",
            4,
            10,
            "reachability goal combined with an until obligation",
        ));
        registry.push(custom(
            "stress-n8",
            "G((P0.p || P1.p) U (P6.p && P7.p))",
            8,
            8,
            "eight-process stress: disjunctive until at the repository's largest scale",
        ));

        // The deploy family: the same monitors as everywhere else, but one
        // `monitord` OS process each, exchanging tokens over real sockets
        // (`--target deploy`).  Traces are deliberately short — every fed event
        // pays a full quiescence barrier (status round-trips to every daemon), so
        // the family measures deployment mechanics, not lattice exploration.
        // Unix sockets by default; `deploy-B-n3` runs over TCP loopback so both
        // transports stay exercised.
        let deploy_config = |property: PropertySpec, n: usize| ExperimentConfig {
            events_per_process: 10,
            seeds: vec![1],
            ..ExperimentConfig::paper_default(property, n)
        };
        for property in PaperProperty::ALL {
            let transport = if property == PaperProperty::B {
                DeployTransport::Tcp
            } else {
                DeployTransport::Unix
            };
            registry.push(Scenario {
                name: format!("deploy-{}-n3", property.name()),
                description: format!(
                    "Real-socket deployment: property {}, 3 monitor processes over \
                     {} sockets, fault-free",
                    property.name(),
                    transport.name()
                ),
                family: ScenarioFamily::Deploy,
                config: deploy_config(property.into(), 3),
                options: MonitorOptions::default(),
                substrate: Substrate::Deployed(DeployParams::clean(transport)),
            });
        }
        registry.push(Scenario {
            name: "deploy-reqack-n2".to_string(),
            description: "Real-socket deployment of a custom LTL spec: \
                          request-response over 2 monitor processes, Unix sockets"
                .to_string(),
            family: ScenarioFamily::Deploy,
            config: deploy_config(
                PropertySpec::parse_named("reqack-n2", "G(P0.req -> F P1.ack)")
                    .expect("registry formulas are valid LTL"),
                2,
            ),
            options: MonitorOptions::default(),
            substrate: Substrate::Deployed(DeployParams::clean(DeployTransport::Unix)),
        });
        registry.push(Scenario {
            name: "deploy-C-n3-faulty".to_string(),
            description: "Real-socket deployment under sound faults: property C, \
                          3 monitor processes, every channel delayed 1 ms with 20% \
                          duplication and 20% reordering"
                .to_string(),
            family: ScenarioFamily::Deploy,
            config: deploy_config(PaperProperty::C.into(), 3),
            options: MonitorOptions::default(),
            substrate: Substrate::Deployed(DeployParams {
                transport: DeployTransport::Unix,
                fault: Some(
                    FaultSpec::parse("delay=1,dup=0.2,reorder=0.2,seed=7")
                        .expect("registry fault specs are valid"),
                ),
            }),
        });

        // The fleet family: N properties monitored in one pass over a shared
        // stream (`--target fleet`), pumped once per seed.  The lead (first)
        // member shapes the workload; sessions stay small like the throughput
        // family.
        let fleet_scenario = |letters: &[PaperProperty],
                              n_shards: usize,
                              suffix: &str,
                              options: MonitorOptions,
                              label: &str| {
            let tag: String = letters.iter().map(|p| p.name()).collect();
            let fleet = FleetParams::new(letters.iter().map(|&p| p.into()).collect());
            Scenario {
                name: format!("fleet-{tag}-sh{n_shards}{suffix}"),
                description: format!(
                    "Fleet monitoring: properties {} in one pass, 100 sessions, \
                     3 processes, {n_shards} shard(s){label}",
                    fleet.joined_name()
                ),
                family: ScenarioFamily::Fleet,
                config: stream_config(letters[0], 3, 6),
                options,
                substrate: Substrate::Fleet(StreamParams::sized(100, n_shards), fleet),
            }
        };
        use PaperProperty::{A, B, C, D, E, F};
        let on = MonitorOptions::default;
        registry.push(fleet_scenario(&[A, B], 4, "", on(), ""));
        registry.push(fleet_scenario(&[A, B], 1, "", on(), ""));
        registry.push(fleet_scenario(&[C, D], 4, "", on(), ""));
        registry.push(fleet_scenario(&[A, B, C], 4, "", on(), ""));
        registry.push(fleet_scenario(&[D, E, F], 4, "", on(), ""));
        registry.push(fleet_scenario(&[A, B, C, D], 4, "", on(), ""));
        registry.push(fleet_scenario(&[A, B, C, D, E, F], 4, "", on(), ""));
        registry.push(fleet_scenario(&[A, B, C, D, E, F], 1, "", on(), ""));
        registry.push(fleet_scenario(
            &[A, B, C, D, E, F],
            4,
            "-noopt",
            MonitorOptions::ALL_OFF,
            ", §4.3 optimizations off",
        ));

        registry
    }

    /// Adds a scenario.
    ///
    /// Panics if a scenario with the same name is already registered — names are the
    /// stable keys of the results pipeline, so a silent overwrite would corrupt
    /// cross-commit diffs.
    pub fn push(&mut self, scenario: Scenario) {
        assert!(
            self.get(&scenario.name).is_none(),
            "duplicate scenario name `{}`",
            scenario.name
        );
        self.scenarios.push(scenario);
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// All scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// The scenarios of one family, in registration order.
    pub fn family(&self, family: ScenarioFamily) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter().filter(move |s| s.family == family)
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when no scenarios are registered.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

impl<'a> IntoIterator for &'a ScenarioRegistry {
    type Item = &'a Scenario;
    type IntoIter = std::slice::Iter<'a, Scenario>;

    fn into_iter(self) -> Self::IntoIter {
        self.scenarios.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_the_paper_sweep() {
        let registry = ScenarioRegistry::standard();
        for property in PaperProperty::ALL {
            for n in [2usize, 3, 4, 5] {
                let name = format!("paper-{}-n{}", property.name(), n);
                let s = registry
                    .get(&name)
                    .unwrap_or_else(|| panic!("missing {name}"));
                assert_eq!(s.config.property, property);
                assert_eq!(s.config.n_processes, n);
                assert_eq!(s.family, ScenarioFamily::Paper);
            }
        }
        assert_eq!(registry.family(ScenarioFamily::Paper).count(), 24);
        assert_eq!(registry.family(ScenarioFamily::CommFrequency).count(), 5);
        assert!(
            registry.family(ScenarioFamily::Extended).count() >= 3,
            "at least three non-paper scenarios are required"
        );
    }

    #[test]
    fn throughput_family_covers_properties_and_shard_counts() {
        let registry = ScenarioRegistry::standard();
        // Every paper property is streamed …
        for property in PaperProperty::ALL {
            let name = format!("throughput-{}-s200-sh4", property.name());
            let s = registry
                .get(&name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(s.family, ScenarioFamily::Throughput);
            assert_eq!(s.substrate.stream().unwrap().n_sessions, 200);
        }
        // … and at least three distinct shard counts are measured (the engine's
        // scaling curve needs ≥ 3 points).
        let shard_counts: std::collections::BTreeSet<usize> = registry
            .family(ScenarioFamily::Throughput)
            .map(|s| s.substrate.stream().unwrap().n_shards)
            .collect();
        assert!(
            shard_counts.len() >= 3,
            "need ≥ 3 shard counts, got {shard_counts:?}"
        );
        // Offline scenarios never carry stream params; the two streaming
        // families always do.
        for s in &registry {
            assert_eq!(
                s.substrate.stream().is_some(),
                matches!(s.family, ScenarioFamily::Throughput | ScenarioFamily::Fleet),
                "{}",
                s.name
            );
        }
        // And fleet members are exactly the fleet family's scenarios.
        for s in &registry {
            assert_eq!(
                matches!(s.substrate, Substrate::Fleet(..)),
                s.family == ScenarioFamily::Fleet,
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn small_throughput_scenario_runs_end_to_end() {
        let registry = ScenarioRegistry::standard();
        let mut scenario = registry
            .get("throughput-B-s200-sh4")
            .expect("registered")
            .clone();
        scenario.config.events_per_process = 4;
        scenario.substrate = Substrate::Streamed(StreamParams::sized(12, 2));
        let result = scenario.run();
        assert_eq!(result.avg.per_shard.len(), 2);
        assert!(result.avg.events_per_sec > 0.0);
        assert!(result.avg.wall_clock_secs > 0.0);
        assert!(result.detected_verdicts.contains(&dlrv_ltl::Verdict::True));
    }

    #[test]
    fn offline_scenarios_report_wall_clock_duration() {
        let registry = ScenarioRegistry::standard();
        let mut scenario = registry.get("paper-B-n2").expect("registered").clone();
        scenario.config.events_per_process = 4;
        scenario.config.seeds = vec![1];
        let result = scenario.run();
        assert!(
            result.avg.wall_clock_secs > 0.0,
            "scenario duration must be measured"
        );
        assert!(result.per_seed.iter().all(|m| m.wall_clock_secs > 0.0));
        assert!(result.avg.per_shard.is_empty());
    }

    #[test]
    fn scenario_names_are_unique() {
        let registry = ScenarioRegistry::standard();
        let mut names: Vec<_> = registry.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "scenario names must be unique");
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_names_are_rejected() {
        let mut registry = ScenarioRegistry::standard();
        let clone = registry.iter().next().unwrap().clone();
        registry.push(clone);
    }

    #[test]
    fn extended_scenarios_run_and_produce_metrics() {
        // Scaled-down copies of the extended shapes: the point is that every new
        // workload shape actually executes end-to-end, not the absolute numbers.
        let registry = ScenarioRegistry::standard();
        for name in ["bursty-C-n4", "hotspot-D-n4", "ring-B-n4", "pipeline-A-n4"] {
            let mut scenario = registry.get(name).expect(name).clone();
            scenario.config.events_per_process = 6;
            scenario.config.seeds = vec![1];
            let result = scenario.run();
            assert!(result.avg.total_events > 0, "{name} must simulate events");
            assert!(result.avg.program_time > 0.0);
        }
    }

    #[test]
    fn family_names_round_trip() {
        for family in [
            ScenarioFamily::Paper,
            ScenarioFamily::CommFrequency,
            ScenarioFamily::Extended,
            ScenarioFamily::Throughput,
            ScenarioFamily::Overhead,
            ScenarioFamily::Custom,
            ScenarioFamily::Deploy,
            ScenarioFamily::Fleet,
        ] {
            assert_eq!(ScenarioFamily::from_name(family.name()), Some(family));
        }
        assert_eq!(ScenarioFamily::from_name("nope"), None);
    }

    #[test]
    fn fleet_family_covers_the_advertised_shapes() {
        let registry = ScenarioRegistry::standard();
        assert!(
            registry.family(ScenarioFamily::Fleet).count() >= 8,
            "the fleet family must ship at least eight scenarios"
        );
        // The headline fleet (all six properties) is measured at 1 AND 4 shards.
        for n_shards in [1usize, 4] {
            let name = format!("fleet-ABCDEF-sh{n_shards}");
            let s = registry
                .get(&name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(s.family, ScenarioFamily::Fleet);
            let Substrate::Fleet(stream, fleet) = &s.substrate else {
                panic!("fleet scenarios carry members")
            };
            assert_eq!(fleet.len(), 6);
            assert_eq!(fleet.joined_name(), "A+B+C+D+E+F");
            assert_eq!(stream.n_shards, n_shards);
            // The lead member shapes the workload.
            assert_eq!(s.config.property.name(), "A");
        }
        // A no-opt variant keeps the aggregation-off transport path measured.
        let noopt = registry.get("fleet-ABCDEF-sh4-noopt").expect("noopt fleet");
        assert_eq!(noopt.options, MonitorOptions::ALL_OFF);
        // Fleet sizes 2, 3, 4 and 6 are all present.
        let sizes: std::collections::BTreeSet<usize> = registry
            .family(ScenarioFamily::Fleet)
            .map(|s| match &s.substrate {
                Substrate::Fleet(_, fleet) => fleet.len(),
                _ => unreachable!("{} is no fleet", s.name),
            })
            .collect();
        assert!(sizes.is_superset(&[2, 3, 4, 6].into()), "got {sizes:?}");
    }

    #[test]
    fn small_fleet_scenario_runs_end_to_end() {
        let registry = ScenarioRegistry::standard();
        let mut scenario = registry.get("fleet-AB-sh4").expect("registered").clone();
        scenario.config.events_per_process = 4;
        let Substrate::Fleet(stream, _) = &mut scenario.substrate else {
            unreachable!("a fleet scenario")
        };
        *stream = StreamParams::sized(8, 2);
        let result = scenario.run();
        assert_eq!(result.avg.fleet_size, 2);
        assert_eq!(result.avg.fleet_per_property.len(), 2);
        assert!(result.avg.wall_clock_secs > 0.0);
        assert!(result.avg.events_per_sec > 0.0);
        assert!(result.detected_verdicts.contains(&dlrv_ltl::Verdict::True));
    }

    #[test]
    fn custom_family_covers_the_advertised_patterns() {
        let registry = ScenarioRegistry::standard();
        assert!(
            registry.family(ScenarioFamily::Custom).count() >= 8,
            "the custom family must ship at least eight scenarios"
        );
        for scenario in registry.family(ScenarioFamily::Custom) {
            assert!(scenario.name.starts_with("custom-"), "{}", scenario.name);
            assert_eq!(scenario.substrate, Substrate::Simulated);
            let spec = &scenario.config.property;
            assert!(
                spec.paper_property().is_none(),
                "{}: must be an LTL spec",
                scenario.name
            );
            assert!(
                spec.min_processes() <= scenario.config.n_processes,
                "{}: process count too small for its atoms",
                scenario.name
            );
        }
        // The stress entry reaches the repository's largest process count.
        let stress = registry.get("custom-stress-n8").expect("stress scenario");
        assert_eq!(stress.config.n_processes, 8);
    }

    #[test]
    fn custom_scenarios_run_end_to_end() {
        // Scaled-down copies: every custom formula must drive workload generation,
        // simulation and decentralized monitoring to a deterministic conclusion.
        let registry = ScenarioRegistry::standard();
        for name in [
            "custom-reqack-n2",
            "custom-mutex-n2",
            "custom-nested-until-n3",
        ] {
            let mut scenario = registry.get(name).expect(name).clone();
            scenario.config.events_per_process = 5;
            scenario.config.seeds = vec![1];
            let result = scenario.run();
            assert!(result.avg.total_events > 0, "{name} must simulate events");
            assert!(result.avg.program_time > 0.0, "{name}");
        }
        // The goal tail drives both critical sections true concurrently, so the
        // mutual-exclusion property must be detected as violated.
        let mut mutex = registry.get("custom-mutex-n2").expect("mutex").clone();
        mutex.config.events_per_process = 6;
        mutex.config.seeds = vec![1];
        let result = mutex.run();
        assert!(
            result.detected_verdicts.contains(&dlrv_ltl::Verdict::False),
            "goal tail must force a mutual-exclusion violation, got {:?}",
            result.detected_verdicts
        );
    }

    #[test]
    fn overhead_family_pairs_every_property() {
        // Each property has an opts-on and an opts-off member with identical
        // workloads (same config, same seeds) — the A/B contract of `--target
        // overhead`: any metric difference within a pair is due to the §4.3 switches.
        let registry = ScenarioRegistry::standard();
        for property in PaperProperty::ALL {
            let on = registry
                .get(&format!("overhead-{}-opts", property.name()))
                .expect("opts-on member");
            let off = registry
                .get(&format!("overhead-{}-noopt", property.name()))
                .expect("opts-off member");
            assert_eq!(on.family, ScenarioFamily::Overhead);
            assert_eq!(off.family, ScenarioFamily::Overhead);
            assert_eq!(on.config, off.config, "{property}: pair must share traces");
            assert_eq!(on.config.n_processes, 4);
            assert_eq!(on.options, MonitorOptions::default());
            assert_eq!(off.options, MonitorOptions::ALL_OFF);
            assert_eq!(on.substrate, Substrate::Simulated);
            assert_eq!(off.substrate, Substrate::Simulated);
        }
        assert_eq!(registry.family(ScenarioFamily::Overhead).count(), 12);
    }
}
