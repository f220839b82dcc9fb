//! Seeded inputs: editing-simulator chains rendered as catalog documents,
//! and the request plan each workload sends over them.
//!
//! Every input derives from `--seed` alone. A chain is one run of the
//! paper's schema-editing scenario (`replay_editing`, schema size 30): its
//! schema versions `v0 … vN` and the edit mappings between them, renamed
//! `c<k>v<i>` / `c<k>e<i>` so several chains share one catalog. A plan then
//! lists the requests of each phase; each request belongs to one chain, and
//! a chain's requests always travel on the same connection.

use std::collections::BTreeSet;

use mapcomp_algebra::{Constraint, ConstraintSet, Expr, Signature, Tuple, Value};
use mapcomp_catalog::{
    render_mapping_decl, render_schema_decl, replay_editing, ComposedChain, SessionConfig,
};
use mapcomp_compose::{DifferentialChase, Registry, Update};
use mapcomp_evolution::ScenarioConfig;
use mapcomp_service::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relations in each chain's original schema (the paper's default).
pub const SCHEMA_SIZE: usize = 30;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only `compose-path` over long, fully memoised spans.
    HotCompose,
    /// The editing scenario served live: appends, mid-chain re-edits and
    /// reads on a persisted catalog.
    Evolve,
    /// `migrate-delta` sessions streaming small mixed-sign batches.
    Migrate,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::HotCompose, Workload::Evolve, Workload::Migrate];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCompose => "hot-compose",
            Workload::Evolve => "evolve",
            Workload::Migrate => "migrate",
        }
    }

    /// Sizing: chains, edits per chain (pre-generated), offered open-loop
    /// rate (requests per second), and closed-loop requests per measured
    /// second. See `svcbench/README.md` for how each was chosen.
    fn sizing(self) -> Sizing {
        match self {
            Workload::HotCompose => Sizing { chains: 8, edits: 40, rate: 100.0, closed_per_s: 60 },
            Workload::Evolve => Sizing { chains: 24, edits: 6, rate: 40.0, closed_per_s: 40 },
            Workload::Migrate => Sizing { chains: 48, edits: 8, rate: 40.0, closed_per_s: 80 },
        }
    }

    /// The server's `--compact-appends` setting for this workload: low on
    /// `evolve` so several compactions land in every run, the default
    /// elsewhere.
    pub fn compact_appends(self) -> Option<usize> {
        match self {
            Workload::Evolve => Some(EVOLVE_COMPACT_APPENDS),
            Workload::HotCompose | Workload::Migrate => None,
        }
    }
}

/// `evolve`'s compaction threshold: about one compaction per 200 appends.
pub const EVOLVE_COMPACT_APPENDS: usize = 200;

/// Source rows per relation of a migration session's `v0` schema.
pub const MIGRATE_ROWS: usize = 8;

/// Values in generated source tuples are drawn from `0..MIGRATE_DOMAIN`.
const MIGRATE_DOMAIN: i64 = 100;

/// Shortest span a `hot-compose` read covers, in links (capped below the
/// chain length when the simulator stops early).
const HOT_SPAN: usize = 30;

struct Sizing {
    chains: usize,
    edits: usize,
    rate: f64,
    closed_per_s: usize,
}

/// One simulator chain: schema versions and the edit mappings between them.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Name prefix, `c<k>`.
    pub tag: String,
    /// Schema version `i` at index `i`.
    pub schemas: Vec<Signature>,
    /// Edit `i` (from version `i` to `i + 1`) at index `i`.
    pub edits: Vec<ConstraintSet>,
    /// The whole chain composed, `v0` to `vN` (absent without edits).
    pub composed: Option<ComposedChain>,
}

impl Chain {
    /// Run the editing simulator with `edits` edits under `seed`.
    pub fn generate(index: usize, edits: usize, seed: u64) -> Chain {
        let scenario =
            ScenarioConfig { schema_size: SCHEMA_SIZE, edits, seed, ..ScenarioConfig::default() };
        let replay = replay_editing(&scenario).expect("the simulator replays into a fresh catalog");
        let catalog = replay.session.catalog();
        let schemas = (0..=replay.edits)
            .map(|i| catalog.schema(&format!("v{i}")).expect("replayed version").signature.clone())
            .collect();
        let edits = (1..=replay.edits)
            .map(|i| {
                catalog.mapping(&format!("edit{i}")).expect("replayed edit").constraints.clone()
            })
            .collect();
        let composed = replay.final_result.map(|result| result.chain);
        Chain { tag: format!("c{index}"), schemas, edits, composed }
    }

    /// Number of edits (the last version's index).
    fn len(&self) -> usize {
        self.edits.len()
    }

    /// Catalog name of version `i`.
    pub fn schema_name(&self, i: usize) -> String {
        format!("{}v{i}", self.tag)
    }

    /// Catalog name of edit `i` (version `i` to `i + 1`).
    pub fn mapping_name(&self, i: usize) -> String {
        format!("{}e{}", self.tag, i + 1)
    }

    fn schema_decl(&self, i: usize) -> String {
        let mut decl = render_schema_decl(&self.schema_name(i), &self.schemas[i]);
        if !decl.ends_with('\n') {
            decl.push('\n');
        }
        decl
    }

    fn mapping_decl(&self, i: usize, constraints: &ConstraintSet) -> String {
        render_mapping_decl(
            &self.mapping_name(i),
            &self.schema_name(i),
            &self.schema_name(i + 1),
            constraints,
        )
    }

    /// A document declaring versions `0..=upto` and the edits between them.
    pub fn prefix_document(&self, upto: usize) -> String {
        let mut text: String = (0..=upto).map(|i| self.schema_decl(i)).collect();
        for i in 0..upto {
            text.push_str(&self.mapping_decl(i, &self.edits[i]));
        }
        text
    }

    /// A document appending edit `i`: version `i + 1` and its mapping.
    pub fn append_document(&self, i: usize) -> String {
        let mut text = self.schema_decl(i + 1);
        text.push_str(&self.mapping_decl(i, &self.edits[i]));
        text
    }

    /// A document re-declaring edit `i`, either as generated or with one
    /// trivially true constraint `R <= R` over a relation of its source
    /// version added. Both are equivalent mappings with different content
    /// hashes, so each re-add invalidates the cached segments through it.
    pub fn edited_document(&self, i: usize, variant: bool) -> String {
        let mut constraints = self.edits[i].clone();
        if variant {
            let relation = self.schemas[i].names().into_iter().next().expect("non-empty schema");
            constraints
                .push(Constraint::containment(Expr::rel(relation.clone()), Expr::rel(relation)));
        }
        self.mapping_decl(i, &constraints)
    }
}

/// One request of a plan and the chain it belongs to.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index of the chain (or migration session) the request reads or edits.
    pub chain: usize,
    /// The request.
    pub request: Request,
}

/// Everything one run sends, phase by phase.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The chains the catalog holds.
    pub chains: Vec<Chain>,
    /// Set-up requests: catalog loads, memo warm-up, session builds.
    pub setup: Vec<Op>,
    /// Open-loop requests, in schedule order (`i / rate` seconds after the
    /// start).
    pub open: Vec<Op>,
    /// Closed-loop capacity requests.
    pub closed: Vec<Op>,
    /// Requests of migration sessions whose initial chase does not
    /// converge, sent after the closed loop and untimed. Every reply is
    /// still checked, and each unconverged target counts as a failure.
    pub trailing: Vec<Op>,
    /// Offered open-loop rate, in requests per second.
    pub rate: f64,
}

impl Plan {
    /// Generate the plan of `workload` for `seed`, sized for an open loop
    /// of `seconds` seconds.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let sizing = workload.sizing();
        let open_count = (sizing.rate * seconds as f64).round() as usize;
        let closed_count = sizing.closed_per_s * seconds as usize;
        let mut rng = StdRng::seed_from_u64(mix(seed, u64::MAX));
        let mut plan = Plan {
            workload,
            chains: Vec::new(),
            setup: Vec::new(),
            open: Vec::new(),
            closed: Vec::new(),
            trailing: Vec::new(),
            rate: sizing.rate,
        };
        let edits = match workload {
            // Enough pre-generated edits that appends never run dry: a
            // fifth of each chain's requests append one.
            Workload::Evolve => {
                sizing.edits + (open_count + closed_count) / (4 * sizing.chains) + 8
            }
            Workload::HotCompose | Workload::Migrate => sizing.edits,
        };
        plan.chains =
            (0..sizing.chains).map(|k| Chain::generate(k, edits, mix(seed, k as u64))).collect();
        match workload {
            Workload::HotCompose => plan.fill_hot(&mut rng, open_count, closed_count),
            Workload::Evolve => plan.fill_evolve(&mut rng, sizing.edits, open_count, closed_count),
            Workload::Migrate => plan.fill_migrate(&mut rng, seed, open_count, closed_count),
        }
        plan
    }

    fn compose(&self, chain: usize, from: usize, to: usize) -> Op {
        let c = &self.chains[chain];
        Op {
            chain,
            request: Request::ComposePath { from: c.schema_name(from), to: c.schema_name(to) },
        }
    }

    fn add(chain: usize, text: String) -> Op {
        Op { chain, request: Request::AddDocument { text } }
    }

    fn fill_hot(&mut self, rng: &mut StdRng, open: usize, closed: usize) {
        // Set-up loads each chain and memoises every span the reads can
        // ask for: all left-associated prefixes starting at each start.
        for (k, chain) in self.chains.iter().enumerate() {
            self.setup.push(Plan::add(k, chain.prefix_document(chain.len())));
        }
        for k in 0..self.chains.len() {
            let n = self.chains[k].len();
            for start in 0..=n - hot_span(n) {
                self.setup.push(self.compose(k, start, n));
            }
        }
        for i in 0..open + closed {
            let k = rng.gen_range(0..self.chains.len());
            let n = self.chains[k].len();
            let span = hot_span(n);
            let from = rng.gen_range(0..=n - span);
            let to = rng.gen_range(from + span..=n);
            let op = self.compose(k, from, to);
            if i < open {
                self.open.push(op);
            } else {
                self.closed.push(op);
            }
        }
    }

    fn fill_evolve(&mut self, rng: &mut StdRng, initial: usize, open: usize, closed: usize) {
        let mut latest = Vec::new();
        let mut variant = Vec::new();
        for (k, chain) in self.chains.iter().enumerate() {
            let upto = initial.min(chain.len());
            self.setup.push(Plan::add(k, chain.prefix_document(upto)));
            latest.push(upto);
            variant.push(vec![false; chain.len()]);
        }
        for (k, &upto) in latest.iter().enumerate() {
            self.setup.push(self.compose(k, 0, upto));
        }
        for i in 0..open + closed {
            let k = rng.gen_range(0..self.chains.len());
            let chain = &self.chains[k];
            let roll = rng.gen_range(0..100u32);
            let op = if roll < 20 && latest[k] < chain.len() {
                // Append the chain's next simulated edit.
                let op = Plan::add(k, chain.append_document(latest[k]));
                latest[k] += 1;
                op
            } else if roll < 30 && latest[k] >= 3 {
                // Re-add an edited mid-chain mapping.
                let edit = rng.gen_range(1..latest[k] - 1);
                variant[k][edit] = !variant[k][edit];
                Plan::add(k, chain.edited_document(edit, variant[k][edit]))
            } else if roll < 65 || latest[k] < 2 {
                self.compose(k, 0, latest[k])
            } else {
                let from = rng.gen_range(1..latest[k]);
                self.compose(k, from, latest[k])
            };
            if i < open {
                self.open.push(op);
            } else {
                self.closed.push(op);
            }
        }
    }

    /// Migration sessions: each chain's seeded source is loaded during
    /// set-up, then batches go to sessions at random. A session whose
    /// loaded source does not chase to a fixpoint under the server's chase
    /// configuration (a cold chase decides, off the clock) keeps its load
    /// and all its batches, but they move to the trailing phase: one such
    /// session costs tens of times a converging one in time and memory, so
    /// timing it would make the figures depend on how many a seed happens
    /// to draw.
    fn fill_migrate(&mut self, rng: &mut StdRng, seed: u64, open: usize, closed: usize) {
        let mut sessions: Vec<SessionSource> = Vec::new();
        let mut diverges = Vec::new();
        for (k, chain) in self.chains.iter().enumerate() {
            self.setup.push(Plan::add(k, chain.prefix_document(chain.len())));
            let mut source = SessionSource::new(
                &chain.schemas[0],
                &chain.schemas[chain.len()],
                mix(seed, 1000 + k as u64),
            );
            let load = source.load();
            let diverging = !converges(chain, &load);
            let op = self.migrate(k, load);
            if diverging {
                self.trailing.push(op);
            } else {
                self.setup.push(op);
            }
            diverges.push(diverging);
            sessions.push(source);
        }
        for i in 0..open + closed {
            let k = rng.gen_range(0..self.chains.len());
            let batch = sessions[k].batch();
            let op = self.migrate(k, batch);
            if diverges[k] {
                self.trailing.push(op);
            } else if i < open {
                self.open.push(op);
            } else {
                self.closed.push(op);
            }
        }
    }

    fn migrate(&self, chain: usize, updates: Vec<String>) -> Op {
        let c = &self.chains[chain];
        Op {
            chain,
            request: Request::MigrateDelta {
                from: c.schema_name(0),
                to: c.schema_name(c.len()),
                updates,
            },
        }
    }

    /// All requests in plan order: set-up, open loop, closed loop,
    /// trailing.
    pub fn all(&self) -> impl Iterator<Item = &Op> {
        self.setup.iter().chain(&self.open).chain(&self.closed).chain(&self.trailing)
    }
}

/// Does a cold chase of `load` through the whole chain reach a fixpoint
/// under the server's chase configuration?
fn converges(chain: &Chain, load: &[String]) -> bool {
    let Some(composed) = &chain.composed else { return true };
    let Ok((full, target)) = crate::replay::chase_signatures(composed) else { return true };
    DifferentialChase::new(
        composed.mapping.constraints.as_slice(),
        &full,
        &target,
        crate::replay::fold_history(load),
        &Registry::standard(),
        &SessionConfig::default().chase_config(None),
    )
    .converged()
}

fn hot_span(links: usize) -> usize {
    HOT_SPAN.min(links.saturating_sub(1)).max(1)
}

/// A migration session's source as the generator tracks it: the rows it
/// loaded and every batch since, so deletes always name live rows. Only
/// the relations the chain's edits consumed are source relations; those
/// the last version still carries are target relations of the session.
struct SessionSource {
    relations: Vec<(String, usize)>,
    live: Vec<(String, Tuple)>,
    present: BTreeSet<(String, Tuple)>,
    rng: StdRng,
}

impl SessionSource {
    fn new(first: &Signature, last: &Signature, seed: u64) -> SessionSource {
        let relations = first
            .iter()
            .filter(|(name, _)| !last.contains(name))
            .map(|(name, info)| (name.to_string(), info.arity))
            .collect();
        SessionSource {
            relations,
            live: Vec::new(),
            present: BTreeSet::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn fresh_row(&mut self) -> (String, Tuple) {
        loop {
            let (name, arity) = &self.relations[self.rng.gen_range(0..self.relations.len())];
            let tuple: Tuple =
                (0..*arity).map(|_| Value::Int(self.rng.gen_range(0..MIGRATE_DOMAIN))).collect();
            let row = (name.clone(), tuple);
            if !self.present.contains(&row) {
                return row;
            }
        }
    }

    fn insert(&mut self) -> String {
        let row = self.fresh_row();
        self.present.insert(row.clone());
        self.live.push(row.clone());
        Update::insert(row.0, row.1).render()
    }

    /// The initial load: `MIGRATE_ROWS` rows per relation, as one batch.
    fn load(&mut self) -> Vec<String> {
        (0..MIGRATE_ROWS * self.relations.len()).map(|_| self.insert()).collect()
    }

    /// A mixed-sign batch: two deletes of live rows, two fresh inserts
    /// (empty when the chain consumed no relation of its first version).
    fn batch(&mut self) -> Vec<String> {
        if self.relations.is_empty() {
            return Vec::new();
        }
        let mut updates = Vec::new();
        for _ in 0..2 {
            let index = self.rng.gen_range(0..self.live.len());
            let row = self.live.swap_remove(index);
            self.present.remove(&row);
            updates.push(Update::delete(row.0, row.1).render());
        }
        updates.push(self.insert());
        updates.push(self.insert());
        updates
    }
}

/// SplitMix64 of `seed` and `stream`: independent sub-seeds per chain.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
