//! Data exchange: materialise a target instance from a source instance and a
//! mapping.
//!
//! The paper motivates composition with data migration ("With this mapping,
//! the designer can now migrate data from the old schema to the new schema",
//! Example 1) and cites data exchange as the application of the
//! second-order-tgd line of work \[5\]. This module provides that downstream
//! consumer: a chase-style engine that, given a source instance and a set of
//! algebraic constraints, computes a canonical target instance satisfying
//! every supported constraint, inventing labelled nulls for
//! existentially-required values.
//!
//! Supported constraints are containments `E1 ⊆ E2` (equalities contribute
//! their left-to-right direction) whose right-hand side converts to
//! conjunctive form over target relations (select–project–join shapes, the
//! same fragment deskolemization handles). Constraints that do not fit are
//! reported, not silently dropped.
//!
//! # Chase strategies
//!
//! Two fixpoint strategies are provided behind
//! [`ExchangeConfig::strategy`]:
//!
//! * [`ChaseStrategy::Naive`] — the textbook loop: every round re-evaluates
//!   every rule's full premise and satisfaction check over a fresh
//!   `source.merge(&target)` clone.
//! * [`ChaseStrategy::SemiNaive`] (the default) — delta-driven evaluation.
//!   Each rule's premise is compiled once into an indexed conjunctive plan
//!   ([`crate::plan::PremisePlan`]); per round the engine snapshots the
//!   frontier once into hash-indexed form and evaluates each rule only
//!   against its *delta* — the tuples inserted since the rule last ran, with
//!   at least one premise atom bound to those new tuples. Rules whose premise
//!   relations saw no insertions (in particular every source-to-target rule
//!   after round one) are skipped outright. Premises outside the conjunctive
//!   fragment fall back to full expression evaluation over a copy-free
//!   [`DeltaInstance`] layered view, and satisfaction checks run over the
//!   same view, so the per-rule `merge` clone is gone entirely.
//!
//! The two strategies fire the same premise tuples in the same order, so
//! they produce identical targets (including labelled-null numbering),
//! identical `skipped` reports and identical convergence behaviour whenever
//! evaluation stays within the tuple budget; `tests/chase_equivalence.rs`
//! asserts this across the paper examples, the literature corpus and the
//! evolution simulator.

use std::collections::{BTreeMap, BTreeSet};

use mapcomp_algebra::{
    Constraint, DeltaInstance, Evaluator, Expr, Instance, Relation, Signature, Tuple, Value,
};

use crate::cq::{expr_to_conjunctive, Conjunctive, Term};
use crate::plan::{PremisePlan, TupleIndex, WorkBudget};
use crate::registry::Registry;

/// Fixpoint evaluation strategy of the chase (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaseStrategy {
    /// Re-evaluate every rule from scratch each round over a merged clone.
    Naive,
    /// Delta-driven rule evaluation with per-round hash-indexed frontiers.
    #[default]
    SemiNaive,
}

/// A static chase-termination verdict attached to a run by the caller.
///
/// The chase itself does no analysis — `mapcomp-analysis` (which depends on
/// this crate) proves weak acyclicity and derives budgets; catalog-level
/// callers record the verdict here so [`ExchangeResult`] can report which
/// guarantee the run executed under. Plain data by design: compose must not
/// depend on the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TerminationVerdict {
    /// No static analysis was consulted; the run relies on runtime limits.
    #[default]
    Unanalyzed,
    /// Weak acyclicity was proven and `eval_budget` was derived from the
    /// polynomial bound (the same value stored in
    /// [`ExchangeConfig::eval_budget`]).
    Proven {
        /// The analysis-derived per-evaluation budget.
        eval_budget: usize,
    },
    /// Analysis ran but could not prove termination; runtime limits guard
    /// the run.
    Unknown,
}

/// Configuration of the chase.
#[derive(Debug, Clone)]
pub struct ExchangeConfig {
    /// Maximum number of chase rounds (a round applies every constraint
    /// once). Target-to-target constraints may need several rounds; purely
    /// source-to-target mappings converge in one.
    pub max_rounds: usize,
    /// Hard cap on the number of labelled nulls, as a safety valve against
    /// non-terminating chases.
    pub max_nulls: usize,
    /// Per-evaluation tuple budget for premises and satisfaction checks.
    /// Active-domain powers and products grow combinatorially as the chase
    /// invents nulls; rules whose evaluation exceeds this budget are skipped
    /// (and reported) instead of exhausting memory.
    pub eval_budget: usize,
    /// Fixpoint evaluation strategy (default: semi-naive).
    pub strategy: ChaseStrategy,
    /// The static termination verdict this run executes under, set by the
    /// caller (typically from `mapcomp-analysis`); copied verbatim into
    /// [`ExchangeResult::verdict`]. Purely informational to the engine.
    pub verdict: TerminationVerdict,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            max_rounds: 16,
            max_nulls: 10_000,
            eval_budget: 1_000_000,
            strategy: ChaseStrategy::default(),
            verdict: TerminationVerdict::default(),
        }
    }
}

impl ExchangeConfig {
    /// This configuration with a different chase strategy.
    pub fn with_strategy(mut self, strategy: ChaseStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Result of a data-exchange run.
#[derive(Debug, Clone)]
pub struct ExchangeResult {
    /// The computed target instance (a canonical solution).
    pub target: Instance,
    /// Number of labelled nulls invented.
    pub nulls_created: usize,
    /// Number of chase rounds executed.
    pub rounds: usize,
    /// Constraints that could not be used for exchange (with the reason).
    pub skipped: Vec<(Constraint, String)>,
    /// Did the chase reach a fixpoint (as opposed to hitting a limit)?
    pub converged: bool,
    /// The static termination verdict the run executed under, copied from
    /// [`ExchangeConfig::verdict`].
    pub verdict: TerminationVerdict,
    /// Rows materialised into the semi-naive engine's persistent frontier
    /// index: the one-time source snapshot plus one in-place insert per
    /// novel target tuple. Each live tuple is indexed exactly once for the
    /// whole run — per-round allocation no longer scales with instance size
    /// (the per-round snapshot clone this replaced cost
    /// `rounds × |source ∪ target|`). Always 0 under the naive strategy,
    /// which keeps no frontier index.
    pub frontier_rows: usize,
}

/// A constraint prepared for chasing: an evaluable premise and a conjunctive
/// conclusion over target relations.
struct ChaseRule {
    /// The containment this rule was built from (for skip reporting).
    origin: Constraint,
    premise: Expr,
    conclusion: Conjunctive,
    /// Expression recomputing the currently-derivable conclusion heads, used
    /// to test whether a premise tuple is already satisfied.
    conclusion_check: Expr,
    /// Set once the rule has been dropped (e.g. it exceeded the evaluation
    /// budget) so it is reported exactly once and not retried.
    dropped: bool,
    /// Indexed conjunctive plan for the premise (semi-naive only; `None`
    /// when the premise is outside the plannable fragment).
    plan: Option<PremisePlan>,
    /// Position in the insertion log up to which this rule has seen the
    /// target (semi-naive bookkeeping).
    cursor: usize,
    /// Premise tuples fired but not yet re-confirmed as satisfied; they are
    /// rechecked (and, for conclusions over source relations, refired) on
    /// the next round, exactly as the naive strategy would.
    pending: BTreeSet<Tuple>,
    /// Has the premise been evaluated in full at least once?
    initialized: bool,
}

/// Compute a canonical target instance for `constraints` from `source`.
///
/// `full_sig` must cover every relation mentioned by the constraints;
/// `target_sig` lists the relations to be populated (anything not in
/// `target_sig` is treated as source data and read from `source`).
pub fn exchange(
    constraints: &[Constraint],
    full_sig: &Signature,
    target_sig: &Signature,
    source: &Instance,
    registry: &Registry,
    config: &ExchangeConfig,
) -> ExchangeResult {
    let mut skipped = Vec::new();
    let mut rules = Vec::new();

    for constraint in constraints {
        for containment in constraint.as_containments() {
            // Only directions that can populate the target are chase rules:
            // the conclusion must mention at least one target relation and
            // convert to conjunctive form.
            let mentions_target =
                containment.rhs.relations().iter().any(|name| target_sig.contains(name));
            if !mentions_target {
                continue;
            }
            match expr_to_conjunctive(&containment.rhs, full_sig) {
                Ok(conclusion) => {
                    if conclusion.head.iter().any(Term::has_func) {
                        skipped.push((
                            containment.clone(),
                            "conclusion contains Skolem functions".to_string(),
                        ));
                        continue;
                    }
                    let conclusion_check = match conclusion.to_expr() {
                        Ok(expr) => expr,
                        Err(reason) => {
                            skipped.push((containment.clone(), reason));
                            continue;
                        }
                    };
                    let plan = PremisePlan::compile(&containment.lhs, full_sig);
                    rules.push(ChaseRule {
                        origin: containment.clone(),
                        premise: containment.lhs.clone(),
                        conclusion,
                        conclusion_check,
                        dropped: false,
                        plan,
                        cursor: 0,
                        pending: BTreeSet::new(),
                        initialized: false,
                    });
                }
                Err(reason) => skipped.push((containment.clone(), reason)),
            }
        }
    }

    match config.strategy {
        ChaseStrategy::Naive => {
            exchange_naive(rules, full_sig, target_sig, source, registry, config, skipped)
        }
        ChaseStrategy::SemiNaive => {
            exchange_semi_naive(rules, full_sig, target_sig, source, registry, config, skipped)
        }
    }
}

/// The textbook chase loop: full re-evaluation over a merged clone each
/// round. Kept verbatim as the reference implementation the semi-naive
/// engine is tested against.
fn exchange_naive(
    mut rules: Vec<ChaseRule>,
    full_sig: &Signature,
    target_sig: &Signature,
    source: &Instance,
    registry: &Registry,
    config: &ExchangeConfig,
    mut skipped: Vec<(Constraint, String)>,
) -> ExchangeResult {
    let mut target = Instance::new();
    let mut nulls_created = 0usize;
    let mut rounds = 0usize;
    let mut converged = false;
    let (rounds_metric, frontier_metric) = chase_telemetry("naive");

    while rounds < config.max_rounds {
        rounds += 1;
        rounds_metric.incr();
        let mut fired_this_round = 0u64;
        let mut changed = false;
        for rule in &mut rules {
            if rule.dropped {
                continue;
            }
            let combined = source.merge(&target);
            let evaluator = Evaluator::with_budget(
                full_sig,
                registry.operators(),
                &combined,
                config.eval_budget,
            );
            let premise_tuples = match evaluator.eval(&rule.premise) {
                Ok(relation) => relation,
                Err(reason) => {
                    rule.dropped = true;
                    skipped.push((rule.origin.clone(), format!("premise not evaluable: {reason}")));
                    continue;
                }
            };
            if premise_tuples.is_empty() {
                continue;
            }
            let satisfied = match evaluator.eval(&rule.conclusion_check) {
                Ok(relation) => relation,
                Err(reason) => {
                    rule.dropped = true;
                    skipped.push((
                        rule.origin.clone(),
                        format!("satisfaction check not evaluable: {reason}"),
                    ));
                    continue;
                }
            };
            for tuple in premise_tuples.iter() {
                if satisfied.contains(tuple) {
                    continue;
                }
                if nulls_created >= config.max_nulls {
                    return ExchangeResult {
                        target,
                        nulls_created,
                        rounds,
                        skipped,
                        converged: false,
                        verdict: config.verdict,
                        frontier_rows: 0,
                    };
                }
                for (rel, row) in fire(rule, tuple, target_sig, &mut nulls_created) {
                    target.insert(&rel, row);
                }
                fired_this_round += 1;
                changed = true;
            }
        }
        frontier_metric.observe(fired_this_round);
        if !changed {
            converged = true;
            break;
        }
    }

    ExchangeResult {
        target,
        nulls_created,
        rounds,
        skipped,
        converged,
        verdict: config.verdict,
        frontier_rows: 0,
    }
}

/// The semi-naive chase: one persistent hash-indexed frontier updated in
/// place, per-rule delta evaluation, layered-view satisfaction checks. Fires
/// the same tuples in the same order as [`exchange_naive`].
fn exchange_semi_naive(
    mut rules: Vec<ChaseRule>,
    full_sig: &Signature,
    target_sig: &Signature,
    source: &Instance,
    registry: &Registry,
    config: &ExchangeConfig,
    mut skipped: Vec<(Constraint, String)>,
) -> ExchangeResult {
    // Relations any indexed plan reads: only these need snapshotting and
    // insertion logging.
    let plan_rels: BTreeSet<String> = rules
        .iter()
        .filter_map(|rule| rule.plan.as_ref())
        .flat_map(|plan| plan.relations().iter().cloned())
        .collect();

    let mut target = Instance::new();
    // Append-only record of insertions into plan-read relations that are
    // novel to the live frontier (source ∪ target); each rule's delta is
    // the suffix after its own cursor.
    let mut log: Vec<(String, Tuple)> = Vec::new();
    // The persistent live frontier: source rows of plan-read relations,
    // indexed once up front, then updated in place as firings land. Replaces
    // the per-round `source ∪ target` snapshot clone — per-round allocation
    // no longer scales with instance size.
    let mut live = TupleIndex::from_layers(&[source], plan_rels.iter());
    let mut frontier_rows: usize = plan_rels.iter().map(|rel| live.row_count(rel)).sum();
    // Active domain of source ∪ target, maintained incrementally.
    let mut domain: BTreeSet<Value> = source.active_domain();
    let mut nulls_created = 0usize;
    let mut rounds = 0usize;
    let mut converged = false;
    let (rounds_metric, frontier_metric) = chase_telemetry("semi-naive");

    while rounds < config.max_rounds {
        rounds += 1;
        rounds_metric.incr();
        let mut changed = false;
        let round_start = log.len();
        for rule in &mut rules {
            if rule.dropped {
                continue;
            }
            let view = DeltaInstance::new(source, &target);
            // Cloning the active domain is only needed when an Evaluator is
            // actually built; most planned-rule visits never do.
            let domain_vec = || -> Vec<Value> { domain.iter().cloned().collect() };
            let mut drop_reason: Option<String> = None;
            let mut candidates: BTreeSet<Tuple> = BTreeSet::new();
            let mut satisfied: Option<Relation> = None;
            match &rule.plan {
                Some(plan) => {
                    let mut work = WorkBudget::new(config.eval_budget);
                    if !rule.initialized {
                        // First evaluation: a full indexed join over the live
                        // frontier (already up to date with every firing).
                        match plan.eval_full(&live, None, &mut work) {
                            Ok(new) => candidates = new,
                            Err(reason) => {
                                drop_reason = Some(format!("premise not evaluable: {reason}"));
                            }
                        }
                    } else {
                        let delta_live = log[rule.cursor..]
                            .iter()
                            .any(|(rel, _)| plan.relations().contains(rel));
                        if delta_live {
                            let delta = slice_index(&log, rule.cursor).expect("non-empty slice");
                            // Non-delta atoms range over the live frontier,
                            // which holds each row exactly once; the delta
                            // rows overlap it by design (they anchor the
                            // join, the frontier supplies the partners).
                            match plan.eval_delta(&live, None, &delta, &mut work) {
                                Ok(new) => candidates = new,
                                Err(reason) => {
                                    drop_reason = Some(format!("premise not evaluable: {reason}"));
                                }
                            }
                        }
                        if drop_reason.is_none() {
                            candidates.extend(rule.pending.iter().cloned());
                        }
                    }
                }
                None => {
                    // Unplannable premise: full expression evaluation over
                    // the layered view, sharing one budget with the
                    // satisfaction check exactly like the naive strategy.
                    let evaluator = Evaluator::with_parts(
                        full_sig,
                        registry.operators(),
                        &view,
                        domain_vec(),
                        Some(config.eval_budget),
                    );
                    match evaluator.eval(&rule.premise) {
                        Ok(premise_tuples) => {
                            if !premise_tuples.is_empty() {
                                match evaluator.eval(&rule.conclusion_check) {
                                    Ok(check) => {
                                        candidates = premise_tuples.into_iter().collect();
                                        satisfied = Some(check);
                                    }
                                    Err(reason) => {
                                        drop_reason = Some(format!(
                                            "satisfaction check not evaluable: {reason}"
                                        ));
                                    }
                                }
                            }
                        }
                        Err(reason) => {
                            drop_reason = Some(format!("premise not evaluable: {reason}"));
                        }
                    }
                }
            }
            if let Some(reason) = drop_reason {
                rule.dropped = true;
                skipped.push((rule.origin.clone(), reason));
                continue;
            }
            let cursor = log.len();
            rule.initialized = true;
            if candidates.is_empty() {
                rule.cursor = cursor;
                continue;
            }
            let satisfied = match satisfied {
                Some(relation) => relation,
                None => {
                    let evaluator = Evaluator::with_parts(
                        full_sig,
                        registry.operators(),
                        &view,
                        domain_vec(),
                        Some(config.eval_budget),
                    );
                    match evaluator.eval(&rule.conclusion_check) {
                        Ok(relation) => relation,
                        Err(reason) => {
                            rule.dropped = true;
                            skipped.push((
                                rule.origin.clone(),
                                format!("satisfaction check not evaluable: {reason}"),
                            ));
                            continue;
                        }
                    }
                }
            };
            // Decide firings against the pre-firing state (like the naive
            // loop, which computes `satisfied` once per rule per round).
            let mut to_insert: Vec<(String, Tuple)> = Vec::new();
            let mut confirmed: Vec<Tuple> = Vec::new();
            let mut fired: Vec<Tuple> = Vec::new();
            let mut exhausted = false;
            for tuple in &candidates {
                if satisfied.contains(tuple) {
                    confirmed.push(tuple.clone());
                    continue;
                }
                if nulls_created >= config.max_nulls {
                    exhausted = true;
                    break;
                }
                to_insert.extend(fire(rule, tuple, target_sig, &mut nulls_created));
                fired.push(tuple.clone());
            }
            rule.cursor = cursor;
            for tuple in confirmed {
                rule.pending.remove(&tuple);
            }
            if rule.plan.is_some() {
                rule.pending.extend(fired.iter().cloned());
            }
            if !fired.is_empty() {
                changed = true;
            }
            for (rel, row) in to_insert {
                let novel = !target.get_ref(&rel).is_some_and(|existing| existing.contains(&row));
                if novel {
                    domain.extend(row.iter().cloned());
                    // Rows already live (a target tuple duplicating a source
                    // tuple) add nothing to any join: they are kept out of
                    // the frontier and the delta log alike.
                    if plan_rels.contains(&rel) && live.insert_row(&rel, row.clone()) {
                        frontier_rows += 1;
                        log.push((rel.clone(), row.clone()));
                    }
                    target.insert(&rel, row);
                }
            }
            if exhausted {
                return ExchangeResult {
                    target,
                    nulls_created,
                    rounds,
                    skipped,
                    converged: false,
                    verdict: config.verdict,
                    frontier_rows,
                };
            }
        }
        frontier_metric.observe((log.len() - round_start) as u64);
        if !changed {
            converged = true;
            break;
        }
    }

    ExchangeResult {
        target,
        nulls_created,
        rounds,
        skipped,
        converged,
        verdict: config.verdict,
        frontier_rows,
    }
}

/// The chase-progress metrics for one strategy: rounds executed and the
/// per-round frontier size (novel tuples a round hands to the next one).
fn chase_telemetry(
    strategy: &'static str,
) -> (&'static mapcomp_telemetry::metrics::Counter, &'static mapcomp_telemetry::metrics::Histogram)
{
    let registry = mapcomp_telemetry::metrics::global();
    let labels = [("strategy", strategy)];
    (
        registry.counter("chase_rounds_total", "Chase rounds executed, per strategy.", &labels),
        registry.histogram(
            "chase_frontier_size",
            "Novel tuples produced per chase round, per strategy.",
            &labels,
            mapcomp_telemetry::metrics::SIZE_BOUNDS,
        ),
    )
}

/// Index a log suffix by relation, or `None` when the suffix is empty.
fn slice_index(log: &[(String, Tuple)], from: usize) -> Option<TupleIndex> {
    if from >= log.len() {
        return None;
    }
    let mut rows: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for (rel, tuple) in &log[from..] {
        rows.entry(rel.clone()).or_default().push(tuple.clone());
    }
    Some(TupleIndex::from_rows(rows))
}

/// The tuples required by one rule firing: head variables take the premise
/// tuple's values, other body variables take fresh labelled nulls. Only
/// target relations are populated.
fn fire(
    rule: &ChaseRule,
    premise_tuple: &Tuple,
    target_sig: &Signature,
    nulls_created: &mut usize,
) -> Vec<(String, Tuple)> {
    let mut binding: BTreeMap<usize, Value> = BTreeMap::new();
    for (term, value) in rule.conclusion.head.iter().zip(premise_tuple) {
        if let Term::Var(var) = term {
            binding.insert(*var, value.clone());
        }
    }
    for (var, constant) in &rule.conclusion.const_of {
        binding.entry(*var).or_insert_with(|| constant.clone());
    }
    // Fresh labelled nulls for the remaining (existential) variables.
    let body_vars: BTreeSet<usize> = rule.conclusion.body_vars();
    for var in body_vars {
        binding.entry(var).or_insert_with(|| {
            *nulls_created += 1;
            Value::Str(format!("_null{}", *nulls_created))
        });
    }
    let mut out = Vec::new();
    for atom in &rule.conclusion.atoms {
        if !target_sig.contains(&atom.rel) {
            // Atoms over source relations in the conclusion cannot be chased
            // into; they act as additional conditions and are ignored here
            // (the premise check keeps the result sound for s-t constraints).
            continue;
        }
        let tuple: Tuple =
            atom.args.iter().map(|var| binding.get(var).cloned().unwrap_or(Value::Null)).collect();
        out.push((atom.rel.clone(), tuple));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{parse_constraints, tuple, ConstraintSet};

    fn registry() -> Registry {
        Registry::standard()
    }

    /// Run a scenario under both strategies, assert they agree exactly, and
    /// return the semi-naive result.
    fn exchange_both(
        constraints: &[Constraint],
        full: &Signature,
        target: &Signature,
        source: &Instance,
        config: &ExchangeConfig,
    ) -> ExchangeResult {
        let naive = exchange(
            constraints,
            full,
            target,
            source,
            &registry(),
            &config.clone().with_strategy(ChaseStrategy::Naive),
        );
        let semi = exchange(
            constraints,
            full,
            target,
            source,
            &registry(),
            &config.clone().with_strategy(ChaseStrategy::SemiNaive),
        );
        assert_eq!(naive.target, semi.target, "strategies disagree on the target");
        assert_eq!(naive.nulls_created, semi.nulls_created);
        assert_eq!(naive.rounds, semi.rounds);
        assert_eq!(naive.converged, semi.converged);
        assert_eq!(naive.skipped.len(), semi.skipped.len());
        semi
    }

    #[test]
    fn example_1_migration_populates_names_and_years() {
        // The composed Example 1 mapping migrates five-star movies into the
        // evolved schema.
        let full = Signature::from_arities([("Movies", 4), ("Names", 2), ("Years", 2)]);
        let target = Signature::from_arities([("Names", 2), ("Years", 2)]);
        let constraints = parse_constraints(
            "project[0,1](select[#3 = 5](Movies)) <= Names; \
             project[0,2](select[#3 = 5](Movies)) <= Years",
        )
        .unwrap()
        .into_vec();
        let mut source = Instance::new();
        source.insert("Movies", tuple([1i64, 100, 1999, 5]));
        source.insert("Movies", tuple([2i64, 200, 2001, 3]));
        source.insert("Movies", tuple([3i64, 300, 2003, 5]));

        let result =
            exchange_both(&constraints, &full, &target, &source, &ExchangeConfig::default());
        assert!(result.converged);
        assert!(result.skipped.is_empty());
        assert_eq!(result.nulls_created, 0);
        assert_eq!(result.target.get("Names").len(), 2);
        assert!(result.target.get("Names").contains(&tuple([1i64, 100])));
        assert!(result.target.get("Years").contains(&tuple([3i64, 2003])));
        assert!(!result.target.get("Names").contains(&tuple([2i64, 200])));

        // The produced instance satisfies the mapping.
        let merged = source.merge(&result.target);
        let set = ConstraintSet::from_constraints(constraints);
        assert!(set.satisfied_by(&full, registry().operators(), &merged).unwrap());
    }

    #[test]
    fn existential_columns_get_labelled_nulls() {
        // R(x) → ∃y S(x, y): the second column of S is invented.
        let full = Signature::from_arities([("R", 1), ("S", 2)]);
        let target = Signature::from_arities([("S", 2)]);
        let constraints = parse_constraints("R <= project[0](S)").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("R", tuple([7i64]));
        source.insert("R", tuple([8i64]));

        let result =
            exchange_both(&constraints, &full, &target, &source, &ExchangeConfig::default());
        assert!(result.converged);
        assert_eq!(result.target.get("S").len(), 2);
        assert_eq!(result.nulls_created, 2);
        let merged = source.merge(&result.target);
        let set = ConstraintSet::from_constraints(constraints);
        assert!(set.satisfied_by(&full, registry().operators(), &merged).unwrap());
    }

    #[test]
    fn join_conclusions_populate_both_relations() {
        // Movies(m,n,y) → Names(m,n) ⋈ Years(m,y) written as a single
        // conclusion over a join expression.
        let full = Signature::from_arities([("Movies", 3), ("Names", 2), ("Years", 2)]);
        let target = Signature::from_arities([("Names", 2), ("Years", 2)]);
        let conclusion = Expr::rel("Names").join_on(Expr::rel("Years"), &[(0, 0)], 2, 2);
        let constraints =
            vec![Constraint::containment(Expr::rel("Movies").project(vec![0, 1, 2]), conclusion)];
        let mut source = Instance::new();
        source.insert("Movies", tuple([1i64, 10, 1990]));

        let result =
            exchange_both(&constraints, &full, &target, &source, &ExchangeConfig::default());
        assert!(result.converged);
        assert!(result.target.get("Names").contains(&tuple([1i64, 10])));
        assert!(result.target.get("Years").contains(&tuple([1i64, 1990])));
    }

    #[test]
    fn target_to_target_constraints_chase_to_fixpoint() {
        // Source copies into S, and an inclusion constraint on the target
        // side requires every S key to appear in T as well.
        let full = Signature::from_arities([("R", 2), ("S", 2), ("T", 1)]);
        let target = Signature::from_arities([("S", 2), ("T", 1)]);
        let constraints = parse_constraints("R <= S; project[0](S) <= T").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("R", tuple([4i64, 40]));

        let result =
            exchange_both(&constraints, &full, &target, &source, &ExchangeConfig::default());
        assert!(result.converged);
        assert!(result.rounds >= 2);
        assert!(result.target.get("S").contains(&tuple([4i64, 40])));
        assert!(result.target.get("T").contains(&tuple([4i64])));
    }

    #[test]
    fn already_satisfied_premises_do_not_fire() {
        let full = Signature::from_arities([("R", 1), ("S", 1)]);
        let target = Signature::from_arities([("S", 1)]);
        let constraints = parse_constraints("R <= S").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("R", tuple([1i64]));
        let first =
            exchange_both(&constraints, &full, &target, &source, &ExchangeConfig::default());
        // Chasing again over source ∪ previously-computed target changes
        // nothing: idempotence.
        let merged_source = source.merge(&first.target);
        let second =
            exchange_both(&constraints, &full, &target, &merged_source, &ExchangeConfig::default());
        assert!(second.target.get("S").is_subset(&first.target.get("S")));
        assert_eq!(second.nulls_created, 0);
    }

    #[test]
    fn unsupported_conclusions_are_reported() {
        // A union on the right cannot be chased; the constraint is reported
        // in `skipped` rather than silently ignored.
        let full = Signature::from_arities([("R", 1), ("S", 1), ("T", 1)]);
        let target = Signature::from_arities([("S", 1), ("T", 1)]);
        let constraints = parse_constraints("R <= S + T").unwrap().into_vec();
        let source = {
            let mut inst = Instance::new();
            inst.insert("R", tuple([1i64]));
            inst
        };
        let result =
            exchange_both(&constraints, &full, &target, &source, &ExchangeConfig::default());
        assert_eq!(result.skipped.len(), 1);
        assert!(result.target.get("S").is_empty() && result.target.get("T").is_empty());
    }

    #[test]
    fn equalities_contribute_their_forward_direction() {
        let full = Signature::from_arities([("R", 2), ("S", 2)]);
        let target = Signature::from_arities([("S", 2)]);
        let constraints = parse_constraints("S = R").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("R", tuple([5i64, 6]));
        let result =
            exchange_both(&constraints, &full, &target, &source, &ExchangeConfig::default());
        assert!(result.target.get("S").contains(&tuple([5i64, 6])));
    }

    #[test]
    fn non_conjunctive_premises_fall_back_and_still_agree() {
        // A difference premise is outside the plannable fragment (and
        // non-monotone); the semi-naive engine must fall back to full
        // evaluation and still match the naive result.
        let full = Signature::from_arities([("A", 1), ("B", 1), ("S", 1)]);
        let target = Signature::from_arities([("S", 1)]);
        let constraints = parse_constraints("A - B <= S").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("A", tuple([1i64]));
        source.insert("A", tuple([2i64]));
        source.insert("B", tuple([2i64]));
        let result =
            exchange_both(&constraints, &full, &target, &source, &ExchangeConfig::default());
        assert!(result.converged);
        assert_eq!(result.target.get("S"), Relation::from_tuples([tuple([1i64])]));
    }

    #[test]
    fn source_atom_conclusions_refire_identically() {
        // Conclusion joins a target atom with a source atom the chase cannot
        // populate: the premise tuple stays unsatisfied forever and both
        // strategies must refire it every round until max_rounds.
        let full = Signature::from_arities([("R", 1), ("S", 1), ("Aux", 1)]);
        let target = Signature::from_arities([("S", 1)]);
        let conclusion = Expr::rel("S").intersect(Expr::rel("Aux"));
        let constraints = vec![Constraint::containment(Expr::rel("R"), conclusion)];
        let mut source = Instance::new();
        source.insert("R", tuple([1i64]));
        let config = ExchangeConfig { max_rounds: 5, ..ExchangeConfig::default() };
        let result = exchange_both(&constraints, &full, &target, &source, &config);
        assert!(!result.converged);
        assert_eq!(result.rounds, 5);
        assert!(result.target.get("S").contains(&tuple([1i64])));
    }

    #[test]
    fn max_nulls_truncates_both_strategies_alike() {
        let full = Signature::from_arities([("R", 1), ("S", 2)]);
        let target = Signature::from_arities([("S", 2)]);
        let constraints = parse_constraints("R <= project[0](S)").unwrap().into_vec();
        let mut source = Instance::new();
        for i in 0..10i64 {
            source.insert("R", tuple([i]));
        }
        let config = ExchangeConfig { max_nulls: 4, ..ExchangeConfig::default() };
        let result = exchange_both(&constraints, &full, &target, &source, &config);
        assert!(!result.converged);
        assert_eq!(result.nulls_created, 4);
    }
}
