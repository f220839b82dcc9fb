//! Equivalence suite for the two chase strategies: the semi-naive indexed
//! engine must be observationally identical to the naive reference — same
//! target instance (the engines even allocate labelled nulls in the same
//! order, so equality is exact, which subsumes isomorphism up to null
//! renaming), same skipped constraints, same convergence flag and round
//! count — across the paper's worked examples, the literature corpus, and
//! evolution-simulator scenarios.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use mapping_composition::compose::plan::{PremisePlan, TupleIndex, WorkBudget};
use mapping_composition::compose::{exchange, ChaseStrategy, ExchangeConfig, ExchangeResult};
use mapping_composition::prelude::*;

fn registry() -> Registry {
    Registry::standard()
}

/// Chase under both strategies and assert they coincide; returns the
/// semi-naive result for scenario-specific checks.
fn assert_strategies_agree(
    label: &str,
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
    assert_eq!(naive.target, semi.target, "{label}: targets differ");
    assert_eq!(naive.nulls_created, semi.nulls_created, "{label}: null counts differ");
    assert_eq!(naive.rounds, semi.rounds, "{label}: round counts differ");
    assert_eq!(naive.converged, semi.converged, "{label}: convergence differs");
    let naive_skipped: Vec<&Constraint> = naive.skipped.iter().map(|(c, _)| c).collect();
    let semi_skipped: Vec<&Constraint> = semi.skipped.iter().map(|(c, _)| c).collect();
    assert_eq!(naive_skipped, semi_skipped, "{label}: skipped sets differ");
    semi
}

#[test]
fn example_1_composed_migration_is_strategy_independent() {
    let doc = parse_document(
        r"
        schema sigma1 { Movies/4; }
        schema sigma2 { FiveStarMovies/3; }
        schema sigma3 { Names/2; Years/2; }
        mapping m12 : sigma1 -> sigma2 {
            project[0,1,2](select[#3 = 5](Movies)) <= FiveStarMovies;
        }
        mapping m23 : sigma2 -> sigma3 {
            project[0,1](FiveStarMovies) <= Names;
            project[0,2](FiveStarMovies) <= Years;
        }
        ",
    )
    .unwrap();
    let task = doc.task("m12", "m23").unwrap();
    let composed = compose(&task, &registry(), &ComposeConfig::default()).unwrap();

    let mut source = Instance::new();
    source.insert("Movies", vec![Value::Int(1), Value::Int(11), Value::Int(1991), Value::Int(5)]);
    source.insert("Movies", vec![Value::Int(2), Value::Int(22), Value::Int(1992), Value::Int(4)]);
    source.insert("Movies", vec![Value::Int(3), Value::Int(33), Value::Int(1993), Value::Int(5)]);

    let full = task.full_signature().unwrap();
    let result = assert_strategies_agree(
        "example 1",
        composed.constraints.as_slice(),
        &full,
        &task.sigma3,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    assert!(result.skipped.is_empty());
    assert_eq!(result.target.get("Names").len(), 2);
}

#[test]
fn paper_example_scenarios_agree() {
    // The worked-example documents of `tests/paper_examples.rs`, chased
    // directly (uncomposed, so the intermediate schema is part of the
    // target) from a small σ1 instance.
    let documents = [
        (
            "example 3 (R ⊆ S ⊆ T)",
            r"
            schema sigma1 { R/1; }
            schema sigma2 { S/1; }
            schema sigma3 { T/1; }
            mapping m12 : sigma1 -> sigma2 { R <= S; }
            mapping m23 : sigma2 -> sigma3 { S <= T; }
            ",
        ),
        (
            "example 5 (view unfolding)",
            r"
            schema sigma1 { R1/1; R2/1; R3/2; }
            schema sigma2 { S/2; }
            schema sigma3 { T1/1; T2/2; T3/2; }
            mapping m12 : sigma1 -> sigma2 { S = R1 * R2; }
            mapping m23 : sigma2 -> sigma3 {
                project[0](R3 - S) <= T1;
                T2 <= T3 - select[#0 = 1](S);
            }
            ",
        ),
        (
            "recursive tc example",
            r"
            schema sigma1 { R/2; }
            schema sigma2 { S/2; }
            schema sigma3 { T/2; }
            mapping m12 : sigma1 -> sigma2 { R <= S; S = tc(S); }
            mapping m23 : sigma2 -> sigma3 { S <= T; }
            ",
        ),
    ];
    for (label, text) in documents {
        let doc = parse_document(text).unwrap();
        let task = doc.task("m12", "m23").unwrap();
        let full = task.full_signature().unwrap();
        let target = task.sigma2.union(&task.sigma3).unwrap();
        let mut source = Instance::new();
        for (name, info) in task.sigma1.iter() {
            for row in 0..3i64 {
                let tuple: Vec<Value> =
                    (0..info.arity).map(|c| Value::Int(row + c as i64)).collect();
                source.insert(name, tuple);
            }
        }
        let constraints = task.combined_constraints().into_vec();
        assert_strategies_agree(
            label,
            &constraints,
            &full,
            &target,
            &source,
            &ExchangeConfig::default(),
        );
    }
}

#[test]
fn corpus_problems_agree() {
    // Chase every literature-suite problem's combined constraint set from a
    // generic σ1 instance into σ2 ∪ σ3. The corpus spans the operator
    // vocabulary (unions, differences, user-defined operators, Skolem
    // shapes), so this exercises both the indexed-plan path and the
    // layered-view fallback, including rules both engines must skip.
    for problem in mapping_composition::corpus::problems() {
        let task = problem.task().expect("corpus problem parses");
        let full = task.full_signature().expect("well-formed signature");
        let target = task.sigma2.union(&task.sigma3).expect("disjoint enough");
        let mut source = Instance::new();
        for (name, info) in task.sigma1.iter() {
            for row in 0..2i64 {
                let tuple: Vec<Value> =
                    (0..info.arity).map(|c| Value::Int(row * 10 + c as i64)).collect();
                source.insert(name, tuple);
            }
        }
        let constraints = task.combined_constraints().into_vec();
        assert_strategies_agree(
            problem.id,
            &constraints,
            &full,
            &target,
            &source,
            &ExchangeConfig::default(),
        );
    }
}

#[test]
fn evolution_scenarios_agree() {
    // Simulator-generated mappings over several seeds: the same scenario as
    // the end-to-end migration test, chased under both strategies.
    for seed in [7, 42, 77] {
        let run = run_editing(&ScenarioConfig {
            schema_size: 6,
            edits: 12,
            seed,
            ..ScenarioConfig::default()
        });
        let mut source = Instance::new();
        for (name, info) in run.original.iter() {
            for row in 0..2i64 {
                let tuple: Vec<Value> =
                    (0..info.arity).map(|c| Value::Int(row * 10 + c as i64)).collect();
                source.insert(name, tuple);
            }
        }
        let mut target_sig = run.current.clone();
        for name in &run.pending {
            if let Some(info) = run.universe.get(name) {
                target_sig.add(name.clone(), info.clone());
            }
        }
        let result = assert_strategies_agree(
            &format!("evolution seed {seed}"),
            &run.constraints,
            &run.universe,
            &target_sig,
            &source,
            &ExchangeConfig { max_rounds: 32, max_nulls: 50_000, ..ExchangeConfig::default() },
        );
        assert!(result.converged, "seed {seed}: chase did not converge");
    }
}

#[test]
fn greedy_join_order_reorders_skewed_premises_and_preserves_results() {
    // A two-atom join premise where the small relation is written *second*:
    // the greedy order must open the join on the one-row Config relation,
    // not the big Events one. The plan introspection must show the reorder
    // actually fired, and both strategies must still agree on the chase.
    let full = Signature::from_arities([("Events", 2), ("Config", 2), ("Out", 2)]);
    let target = Signature::from_arities([("Out", 2)]);
    let constraints =
        parse_constraints("project[0,3](select[#1 = #2](Events * Config)) <= Out").unwrap();
    let mut source = Instance::new();
    for i in 0..40i64 {
        source.insert("Events", vec![Value::Int(i), Value::Int(i % 4)]);
    }
    source.insert("Config", vec![Value::Int(0), Value::Int(99)]);

    let premise = parse_expr("project[0,3](select[#1 = #2](Events * Config))").unwrap();
    let frontier =
        TupleIndex::from_layers(&[&source], ["Events".to_string(), "Config".to_string()].iter());
    let greedy = PremisePlan::compile(&premise, &full).unwrap();
    assert_eq!(greedy.join_order(&frontier, None), vec![1, 0], "reorder must fire");
    let rows = greedy.eval_full(&frontier, None, &mut WorkBudget::new(100_000)).unwrap();
    assert_eq!(rows.len(), 10, "ten events match the config row");

    let result = assert_strategies_agree(
        "greedy order",
        &constraints.into_vec(),
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    assert_eq!(result.target.get("Out").len(), 10);
}

#[test]
fn fig9_scenario_has_no_skips_and_identical_results() {
    // The acceptance scenario of the fig9 bench, asserted at test scale:
    // both strategies converge with an empty skip set and equal targets.
    let (constraints, full, target, source) = mapcomp_bench::chase_scenario(60, 8);
    let result = assert_strategies_agree(
        "fig9 scenario",
        &constraints,
        &full,
        &target,
        &source,
        &mapcomp_bench::chase_scaling_config(8),
    );
    assert!(result.converged);
    assert!(result.skipped.is_empty());
    assert_eq!(result.target.get("J").len(), 60);
}
