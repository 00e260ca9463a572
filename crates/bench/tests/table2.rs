//! The Table II runner and the `table2` command line.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;

use chipvqa_bench::evaluate_table2;
use chipvqa_core::DatasetSpec;
use chipvqa_eval::ParallelExecutor;
use chipvqa_models::ModelZoo;
use chipvqa_telemetry::{MemorySink, Telemetry};

/// The runner traces through the executor it is given: every (model,
/// column) cell leaves `stream.shard` spans that cover its questions.
#[test]
fn runner_traces_every_model_and_column() {
    let sink = Arc::new(MemorySink::new());
    let tele = Telemetry::builder().sink(Arc::clone(&sink)).build();
    let exec = ParallelExecutor::new(2).with_telemetry(tele);
    let table = evaluate_table2(&exec, 1, false);
    assert_eq!(table.rows.len(), ModelZoo::all().len());

    let mut covered: BTreeMap<String, usize> = BTreeMap::new();
    for span in sink.named("stream.shard") {
        let model = span.get("model").expect("shard span names its model");
        let bound = |key| -> usize {
            span.get(key)
                .and_then(|v| v.parse().ok())
                .expect("shard span carries its range")
        };
        *covered.entry(model.to_string()).or_default() += bound("q_end") - bound("q_start");
    }
    let per_column = DatasetSpec::scaled(1).total();
    for profile in ModelZoo::all() {
        assert_eq!(
            covered.get(&profile.name).copied(),
            Some(2 * per_column),
            "{}: shard spans must cover both columns",
            profile.name
        );
    }
    assert_eq!(sink.named("executor.run").len(), 2 * ModelZoo::all().len());
}

/// Malformed values and missing values are usage errors: the usage line
/// on stderr and exit code 2, never a panic.
#[test]
fn malformed_flags_exit_with_usage() {
    for args in [
        &["--scale", "0"][..],
        &["--workers", "0"],
        &["--scale", "abc"],
        &["--chaos", "1"],
        &["--chaos-seed", "-3"],
        &["--scale"],
        &["--trace"],
        &["--no-such-flag"],
        &["merge"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table2"))
            .args(args)
            .output()
            .expect("table2 runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "table2 {args:?}: {stderr}");
        assert!(
            stderr.contains("usage: table2"),
            "table2 {args:?} printed no usage line: {stderr}"
        );
    }
}
