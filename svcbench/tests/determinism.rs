//! The deterministic counters and the replay's reply frames depend on the
//! seed alone: two replays of one seed must agree exactly.

use std::path::PathBuf;

use svcbench::workload::{Plan, Workload};
use svcbench::{counter_lines, layer_table, replay_plan};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn two_runs_at_one_seed_print_identical_counters() {
    for workload in Workload::ALL {
        let runs: Vec<(Vec<String>, Vec<String>)> = (0..2)
            .map(|run| {
                let plan = Plan::generate(workload, 7, 1);
                let dir = scratch(&format!("determinism-{}-{run}", workload.name()));
                let (replay, replies) = replay_plan(&plan, &dir, 2, false);
                (counter_lines(&replay.measured), replies)
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0, "{} counters differ between runs", workload.name());
        assert!(runs[0].1 == runs[1].1, "{} replies differ between runs", workload.name());
    }
}

#[test]
fn hot_reads_compose_nothing_and_the_layer_rows_add_up() {
    let plan = Plan::generate(Workload::HotCompose, 3, 1);
    let (replay, _) = replay_plan(&plan, &scratch("layers-hot"), 2, true);
    assert_eq!(replay.measured.compose_calls, 0, "every hot read is a memo hit");
    assert!(replay.measured.cache_hits >= replay.measured.compose_requests);
    let setup = plan.setup.len();
    let (rows, total) = layer_table(&replay.spans(), |request| request >= setup);
    assert!(total > 0);
    assert_eq!(rows.iter().map(|row| row.total_ns).sum::<u64>(), total);
    assert!(rows.iter().any(|row| row.name == "chain.compose_names"));
    assert!(rows.iter().all(|row| row.name != "compose.pair"), "no pairwise composition on hits");
}
