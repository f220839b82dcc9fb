//! The composition graph: schemas are nodes, mappings are directed edges.
//!
//! Path resolution answers "compose σ_from → σ_to" by finding a directed
//! path of mappings between the two schemas. Under the default
//! [`PathCost::Hops`] a breadth-first search returns a fewest-hops path
//! (fewer pairwise compositions is both faster and less likely to hit a
//! best-effort failure). Under [`PathCost::OpCount`] a Dijkstra search
//! instead minimises the estimated operator-count growth of the fold — the
//! sum of each traversed mapping's constraint operator count — so a longer
//! path of cheap copy mappings beats a short path through operator-heavy
//! mappings. Ties are broken deterministically (fewest hops, then
//! mapping-name order), so the same catalog always resolves the same path.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mapcomp_algebra::ConstraintSet;

use crate::error::CatalogError;
use crate::store::Catalog;

/// How path resolution scores candidate paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PathCost {
    /// Fewest hops: every mapping costs 1 (breadth-first search).
    #[default]
    Hops,
    /// Cheapest estimated operator-count growth: every mapping costs
    /// `1 + op_count(constraints)`, so composing through an operator-heavy
    /// mapping is penalised even when it shortens the path.
    OpCount,
}

/// The edge weight of a mapping under [`PathCost::OpCount`]: one (the hop
/// itself) plus the operator count of its constraints, a proxy for how much
/// the pairwise composition through it grows the chain.
pub fn edge_cost(constraints: &ConstraintSet) -> u64 {
    1 + constraints.op_count() as u64
}

/// Resolve a fewest-hops path of mapping names from `from` to `to`.
///
/// Returns [`CatalogError::EmptyPath`] when `from == to` (there is nothing to
/// compose) and [`CatalogError::NoPath`] when the target is unreachable.
/// Borrows straight out of the catalog — no per-call snapshot allocation on
/// this hot path.
pub fn resolve_path(catalog: &Catalog, from: &str, to: &str) -> Result<Vec<String>, CatalogError> {
    catalog.schema(from)?;
    catalog.schema(to)?;
    // Adjacency: source schema → [(mapping name, target schema)], name-sorted
    // (BTreeMap iteration order) for deterministic tie-breaking.
    let mut adjacency: BTreeMap<&str, Vec<(&str, &str)>> = BTreeMap::new();
    for entry in catalog.mappings() {
        if entry.source == entry.target {
            continue; // self-loops never shorten a path
        }
        adjacency.entry(&entry.source).or_default().push((&entry.name, &entry.target));
    }
    bfs(&adjacency, from, to)
}

/// Resolve a path under an explicit cost model: [`PathCost::Hops`] delegates
/// to [`resolve_path`]; [`PathCost::OpCount`] runs a deterministic Dijkstra
/// search weighted by [`edge_cost`].
pub fn resolve_path_with(
    catalog: &Catalog,
    from: &str,
    to: &str,
    cost: PathCost,
) -> Result<Vec<String>, CatalogError> {
    match cost {
        PathCost::Hops => resolve_path(catalog, from, to),
        PathCost::OpCount => {
            catalog.schema(from)?;
            catalog.schema(to)?;
            let mut adjacency: BTreeMap<&str, Vec<(&str, &str, u64)>> = BTreeMap::new();
            for entry in catalog.mappings() {
                if entry.source == entry.target {
                    continue; // self-loops never cheapen a path
                }
                adjacency.entry(&entry.source).or_default().push((
                    &entry.name,
                    &entry.target,
                    edge_cost(&entry.constraints),
                ));
            }
            dijkstra(&adjacency, from, to)
        }
    }
}

/// Deterministic Dijkstra over a weighted adjacency map: the frontier is a
/// `BTreeSet` keyed `(cost, hops, node)`, and an equal-cost relaxation only
/// replaces a recorded predecessor when its `(hops, mapping, previous)`
/// tuple is lexicographically smaller, so resolution never depends on edge
/// insertion order.
fn dijkstra(
    adjacency: &BTreeMap<&str, Vec<(&str, &str, u64)>>,
    from: &str,
    to: &str,
) -> Result<Vec<String>, CatalogError> {
    if from == to {
        return Err(CatalogError::EmptyPath { schema: from.to_string() });
    }
    // node → (cost, hops, via mapping, previous node)
    let mut best: BTreeMap<&str, (u64, usize, &str, &str)> = BTreeMap::new();
    let mut frontier: BTreeSet<(u64, usize, &str)> = BTreeSet::new();
    let mut settled: BTreeSet<&str> = BTreeSet::new();
    frontier.insert((0, 0, from));
    while let Some(&(cost, hops, node)) = frontier.iter().next() {
        frontier.remove(&(cost, hops, node));
        if !settled.insert(node) {
            continue;
        }
        if node == to {
            break;
        }
        let Some(edges) = adjacency.get(node) else { continue };
        for &(mapping, next, weight) in edges {
            if next == from || settled.contains(next) {
                continue;
            }
            let candidate = (cost + weight, hops + 1, mapping, node);
            let improves = match best.get(next) {
                None => true,
                Some(recorded) => candidate < *recorded,
            };
            if improves {
                if let Some(&(old_cost, old_hops, _, _)) = best.get(next) {
                    frontier.remove(&(old_cost, old_hops, next));
                }
                best.insert(next, candidate);
                frontier.insert((candidate.0, candidate.1, next));
            }
        }
    }
    if !settled.contains(to) {
        return Err(CatalogError::NoPath { from: from.to_string(), to: to.to_string() });
    }
    let mut path = Vec::new();
    let mut node = to;
    while node != from {
        let (_, _, mapping, previous) = best[node];
        path.push(mapping.to_string());
        node = previous;
    }
    path.reverse();
    Ok(path)
}

/// Breadth-first fewest-hops search over a prebuilt adjacency map whose edge
/// lists are sorted by mapping name (deterministic tie-breaking).
fn bfs(
    adjacency: &BTreeMap<&str, Vec<(&str, &str)>>,
    from: &str,
    to: &str,
) -> Result<Vec<String>, CatalogError> {
    if from == to {
        return Err(CatalogError::EmptyPath { schema: from.to_string() });
    }
    let mut predecessor: BTreeMap<&str, (&str, &str)> = BTreeMap::new(); // schema → (via mapping, from schema)
    let mut queue: VecDeque<&str> = VecDeque::new();
    queue.push_back(from);
    while let Some(node) = queue.pop_front() {
        if node == to {
            break;
        }
        let Some(edges) = adjacency.get(node) else { continue };
        for (mapping, next) in edges {
            if *next == from || predecessor.contains_key(next) {
                continue;
            }
            predecessor.insert(next, (mapping, node));
            queue.push_back(next);
        }
    }

    if !predecessor.contains_key(to) {
        return Err(CatalogError::NoPath { from: from.to_string(), to: to.to_string() });
    }
    let mut path = Vec::new();
    let mut node = to;
    while node != from {
        let (mapping, previous) = predecessor[node];
        path.push(mapping.to_string());
        node = previous;
    }
    path.reverse();
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::ConstraintSet;
    use mapcomp_algebra::Signature;

    fn chain_catalog(n: usize) -> Catalog {
        let mut catalog = Catalog::new();
        for i in 0..n {
            catalog.add_schema(format!("s{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        for i in 0..n - 1 {
            catalog
                .add_mapping(
                    format!("m{i}"),
                    &format!("s{i}"),
                    &format!("s{}", i + 1),
                    ConstraintSet::new(),
                )
                .unwrap();
        }
        catalog
    }

    #[test]
    fn resolves_multi_hop_paths() {
        let catalog = chain_catalog(5);
        let path = resolve_path(&catalog, "s0", "s4").unwrap();
        assert_eq!(path, vec!["m0", "m1", "m2", "m3"]);
        let path = resolve_path(&catalog, "s1", "s3").unwrap();
        assert_eq!(path, vec!["m1", "m2"]);
    }

    #[test]
    fn prefers_fewest_hops_and_breaks_ties_by_name() {
        let mut catalog = chain_catalog(3);
        // Direct shortcut s0 → s2.
        catalog.add_mapping("zshort", "s0", "s2", ConstraintSet::new()).unwrap();
        assert_eq!(resolve_path(&catalog, "s0", "s2").unwrap(), vec!["zshort"]);
        // A second direct edge with an earlier name wins the tie.
        catalog.add_mapping("ashort", "s0", "s2", ConstraintSet::new()).unwrap();
        assert_eq!(resolve_path(&catalog, "s0", "s2").unwrap(), vec!["ashort"]);
    }

    #[test]
    fn unreachable_and_trivial_paths_error() {
        let catalog = chain_catalog(3);
        // Directed: no backwards path.
        assert!(matches!(resolve_path(&catalog, "s2", "s0"), Err(CatalogError::NoPath { .. })));
        assert!(matches!(resolve_path(&catalog, "s1", "s1"), Err(CatalogError::EmptyPath { .. })));
        assert!(matches!(
            resolve_path(&catalog, "s0", "nope"),
            Err(CatalogError::UnknownSchema(_))
        ));
    }

    /// Two routes s0 → s3: a 2-hop path through an operator-heavy mapping
    /// and a 3-hop path of plain copies.
    fn costed_catalog() -> Catalog {
        use mapcomp_algebra::parse_constraints;
        let mut catalog = Catalog::new();
        for i in 0..4 {
            catalog.add_schema(format!("s{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        // Cheap 3-hop chain: plain copies, edge cost 1 + 0 each.
        for i in 0..3 {
            catalog
                .add_mapping(
                    format!("copy{i}"),
                    &format!("s{i}"),
                    &format!("s{}", i + 1),
                    parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
                )
                .unwrap();
        }
        // Expensive 2-hop shortcut through s9: heavy operator trees.
        catalog.add_schema("s9", Signature::from_arities([("R9", 1)]));
        catalog
            .add_mapping(
                "heavy1",
                "s0",
                "s9",
                parse_constraints("project[0](select[#0 = #1](R0 * R0)) <= R9").unwrap(),
            )
            .unwrap();
        catalog
            .add_mapping(
                "heavy2",
                "s9",
                "s3",
                parse_constraints("project[0](select[#0 = #1](R9 * R9)) <= R3").unwrap(),
            )
            .unwrap();
        catalog
    }

    #[test]
    fn op_count_cost_prefers_cheap_three_hops_over_expensive_two() {
        let catalog = costed_catalog();
        // Hop count alone picks the 2-hop shortcut.
        assert_eq!(
            resolve_path_with(&catalog, "s0", "s3", PathCost::Hops).unwrap(),
            vec!["heavy1", "heavy2"]
        );
        // Operator-count cost picks the cheaper 3-hop copy chain: the copies
        // cost 1 each (no operators) while each heavy edge carries a
        // product + selection + projection tree.
        assert_eq!(
            resolve_path_with(&catalog, "s0", "s3", PathCost::OpCount).unwrap(),
            vec!["copy0", "copy1", "copy2"]
        );
    }

    #[test]
    fn costed_resolution_matches_bfs_on_uniform_weights() {
        // Empty constraint sets weigh 1 each, so op-count resolution is BFS.
        let catalog = chain_catalog(5);
        let by_cost = |from, to| resolve_path_with(&catalog, from, to, PathCost::OpCount);
        assert_eq!(by_cost("s0", "s4").unwrap(), resolve_path(&catalog, "s0", "s4").unwrap());
        assert!(matches!(by_cost("s4", "s0"), Err(CatalogError::NoPath { .. })));
        assert!(matches!(by_cost("s1", "s1"), Err(CatalogError::EmptyPath { .. })));
        assert!(matches!(by_cost("s0", "nope"), Err(CatalogError::UnknownSchema(_))));
    }

    #[test]
    fn costed_ties_break_by_hops_then_name() {
        use mapcomp_algebra::parse_constraints;
        let mut catalog = chain_catalog(4);
        // A direct edge weighing 1 + 2 operators ties the 3-hop chain of
        // empty mappings: fewer hops wins the tie.
        let copy = || parse_constraints("R0 <= R3").unwrap();
        catalog.add_mapping("direct", "s0", "s3", copy()).unwrap();
        let by_cost = |catalog: &Catalog| resolve_path_with(catalog, "s0", "s3", PathCost::OpCount);
        assert_eq!(by_cost(&catalog).unwrap(), vec!["direct"]);
        // An equal-cost, equal-hops alternative with an earlier name wins.
        catalog.add_mapping("adirect", "s0", "s3", copy()).unwrap();
        assert_eq!(by_cost(&catalog).unwrap(), vec!["adirect"]);
    }
}
