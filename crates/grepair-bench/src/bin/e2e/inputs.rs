//! Workloads and their seeded inputs. Everything here is set-up: it
//! runs before the job's clock starts and is reported as `setup_s`.
//! The library receives only the generated inputs, never the seed.

use crate::api::{self, NodeId, Value};
use std::path::{Path, PathBuf};

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures; tests
/// pass a tiny instance as a function argument — there is no flag or
/// environment variable for it.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub kg_bulk_persons: usize,
    pub manyrules_persons: usize,
    pub synthetic_rules: usize,
    pub cascade_nodes: usize,
    pub cascade_stages: usize,
    pub social_accounts: usize,
    pub stream_batches: usize,
}

impl Sizes {
    /// ISSUE 11's sizes scaled by one common factor of 0.4 so that a run
    /// (three set-ups, a warm-up rep and `run_seconds` of timed reps)
    /// fits the driver's per-run budget on a 2-core host; the batch
    /// count is kept so p95 keeps its 15 samples beyond it. Stages stay
    /// ≤ 9: the default `max_repairs` backstop trips at 16.
    pub const FULL: Sizes = Sizes {
        kg_bulk_persons: 40_000,
        manyrules_persons: 16_000,
        synthetic_rules: 80,
        cascade_nodes: 160_000,
        cascade_stages: 8,
        social_accounts: 8_000,
        stream_batches: 300,
    };
}

/// New accounts per stream batch.
pub const BATCH_ACCOUNTS: usize = 8;
/// Live accounts each new account follows.
pub const FOLLOWS_PER_ACCOUNT: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    KgBulkDurable,
    KgManyrulesInmem,
    CascadeRoundsInmem,
    SocialStreamDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KgBulkDurable,
        Workload::KgManyrulesInmem,
        Workload::CascadeRoundsInmem,
        Workload::SocialStreamDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KgBulkDurable => "kg-bulk-durable",
            Workload::KgManyrulesInmem => "kg-manyrules-inmem",
            Workload::CascadeRoundsInmem => "cascade-rounds-inmem",
            Workload::SocialStreamDurable => "social-stream-durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One account arriving on the stream.
pub struct NewAccount {
    pub attrs: Vec<(String, Value)>,
    pub follows: Vec<NodeId>,
    pub self_follow: bool,
}

pub type Batch = Vec<NewAccount>;

/// What a job starts from.
pub enum Input {
    /// Graph as `GraphDoc::to_text` bytes plus rule DSL, to be loaded
    /// into a fresh store.
    Bulk {
        graph_text: String,
        rules_dsl: String,
    },
    /// The same pair, to be repaired without a store.
    InMemory {
        graph_text: String,
        rules_dsl: String,
    },
    /// A clean, compacted store directory (copied per rep), the journal
    /// sequence it was closed at, and the batches to stream into it.
    Stream {
        fixture: PathBuf,
        fixture_seq: u64,
        rules_dsl: String,
        batches: Vec<Batch>,
    },
}

/// splitmix64 — the benchmark's own generator for the inputs the
/// library's generators do not cover.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Rule DSL for an attribute cascade: `stage{i}` fires when `a{i}` is
/// set and `a{i+1}` is missing, setting `a{i+1}` — each repair enables
/// exactly the next stage. Copied from `grepair_bench::cascade_rules_dsl`
/// so the benchmark owns its inputs.
fn cascade_rules_dsl(stages: usize) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    for i in 0..stages {
        writeln!(
            src,
            "rule stage{i} [incompleteness]
             match (x:T) where has(x.a{i}), missing(x.a{next})
             repair set x.a{next} = true",
            next = i + 1
        )
        .expect("writing to a String cannot fail");
    }
    src
}

/// `nodes` isolated `T` nodes, each carrying a seeded `a0`.
fn cascade_graph_text(nodes: usize, seed: u64) -> String {
    let mut rng = Rng(seed);
    let doc = api::GraphDoc {
        nodes: (0..nodes as u32)
            .map(|id| api::NodeDoc {
                id,
                label: "T".to_owned(),
                attrs: [("a0".to_owned(), Value::Int((rng.next() % 1_000_000) as i64))].into(),
            })
            .collect(),
        edges: Vec::new(),
    };
    api::doc_to_text(&doc)
}

/// Build the clean social store and the batches streamed into it.
fn stream_input(sizes: &Sizes, seed: u64, fixture: &Path) -> Result<Input, String> {
    let rules_dsl = api::SOCIAL_RULES_DSL.to_owned();
    let rules = api::parse_rules(&rules_dsl)?.rules;
    let _ = std::fs::remove_dir_all(fixture);
    let mut store =
        api::store_create_with(fixture, api::dirty_social(sizes.social_accounts, seed))?;
    let report = api::store_repair(&mut store, &rules)?;
    if report.outcome != api::RepairOutcome::Completed || report.violations_remaining != 0 {
        return Err(format!(
            "fixture repair did not reach a fixpoint: {} with {} violations left",
            report.outcome, report.violations_remaining
        ));
    }
    api::store_compact(&mut store)?;
    let fixture_seq = api::store_last_seq(&store);
    let mut live = api::nodes_with_string_attr(api::store_graph(&store), "Account", "handle");
    drop(store);
    live.sort();

    // Duplicate sources and follow targets come from disjoint halves: a
    // merge may delete the live twin, and a deleted node must never be a
    // later batch's follow target. Each source is used once, so no
    // handle ever has three holders.
    let (dup_sources, targets) = live.split_at(live.len() / 2);
    if dup_sources.len() < sizes.stream_batches || targets.len() < FOLLOWS_PER_ACCOUNT {
        return Err(format!(
            "{} live accounts cannot feed {} batches",
            live.len(),
            sizes.stream_batches
        ));
    }
    let mut rng = Rng(seed ^ 0x5EED_BA7C);
    let mut dup_sources = dup_sources.to_vec();
    let batches = (0..sizes.stream_batches)
        .map(|b| {
            (0..BATCH_ACCOUNTS)
                .map(|i| {
                    // Account 0 duplicates a live handle; 0–1 lack a
                    // display name; 2 follows itself.
                    let handle = if i == 0 {
                        dup_sources.swap_remove(rng.below(dup_sources.len())).1
                    } else {
                        format!("@new{b}_{i}")
                    };
                    let mut attrs = vec![("handle".to_owned(), Value::Str(handle))];
                    if i >= 2 {
                        attrs.push(("displayName".to_owned(), Value::Str(format!("New {b} {i}"))));
                    }
                    let mut follows: Vec<NodeId> = Vec::with_capacity(FOLLOWS_PER_ACCOUNT);
                    while follows.len() < FOLLOWS_PER_ACCOUNT {
                        let t = targets[rng.below(targets.len())].0;
                        if !follows.contains(&t) {
                            follows.push(t);
                        }
                    }
                    NewAccount {
                        attrs,
                        follows,
                        self_follow: i == 2,
                    }
                })
                .collect()
        })
        .collect();
    Ok(Input::Stream {
        fixture: fixture.to_owned(),
        fixture_seq,
        rules_dsl,
        batches,
    })
}

/// Generate `workload`'s input from `seed`. `scratch` is where a store
/// fixture may be built.
pub fn set_up(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    scratch: &Path,
) -> Result<Input, String> {
    let kg_text = |persons| api::export_text(&api::noisy_kg(persons, seed));
    Ok(match workload {
        Workload::KgBulkDurable => Input::Bulk {
            graph_text: kg_text(sizes.kg_bulk_persons),
            rules_dsl: api::KG_RULES_DSL.to_owned(),
        },
        Workload::KgManyrulesInmem => Input::InMemory {
            graph_text: kg_text(sizes.manyrules_persons),
            rules_dsl: format!(
                "{}\n{}",
                api::KG_RULES_DSL,
                api::synthetic_rules_dsl(sizes.synthetic_rules)
            ),
        },
        Workload::CascadeRoundsInmem => Input::InMemory {
            graph_text: cascade_graph_text(sizes.cascade_nodes, seed),
            rules_dsl: cascade_rules_dsl(sizes.cascade_stages),
        },
        Workload::SocialStreamDurable => {
            return stream_input(sizes, seed, &scratch.join("fixture"))
        }
    })
}
