//! The two grid workloads: `grid_stream` (the streamed Table II grid, no
//! cache) and `store_warm` (the same grid over an answer store: a cold
//! pass that fills it, then warm passes in fresh processes that replay
//! it).

use std::path::PathBuf;
use std::time::Instant;

use crate::layers::PassTrace;
use crate::program::{default_spec_seed, fnv1a, memo_counts, Grid, StoreCache, Trace};
use crate::{unix_ns, Args, Out};

/// The streamed scale-10 table at the paper seed hashes to this value
/// (`tests/dataset_integrity.rs`).
const FROZEN_SCALE10_HASH: u64 = 0x24a5_8e34_7df8_41cf;

fn setup(args: &Args) -> (Grid, usize, Trace) {
    let grid = Grid::new(args.get("scale"), args.spec_seed());
    (grid, args.get("workers"), Trace::new(args.traced()))
}

/// Wall time, evaluations and per-cell latencies of a pass.
fn report_pass(out: &mut Out, grid: &Grid, wall_s: f64, cell_ns: &[u64]) {
    let cell_ms: Vec<f64> = cell_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    out.num("wall_s", wall_s)
        .num("evaluations", grid.evaluations() as f64)
        .nums("cell_ms", &cell_ms);
}

/// `perfbench grid`: one streamed grid pass without a cache. Checks one
/// cell against the sequential harness, and at the paper seed and scale
/// 10 the whole table against the frozen hash.
pub fn grid(args: &Args, out: &mut Out) -> Result<(), String> {
    let (grid, workers, trace) = setup(args);
    out.num("ready_unix_ns", unix_ns() as f64);
    let memo0 = memo_counts();
    let t = Instant::now();
    let pass = grid.run(workers, None, &trace);
    let wall_s = t.elapsed().as_secs_f64();
    let memo1 = memo_counts();
    report_pass(out, &grid, wall_s, &pass.cell_ns);

    let cells = pass.cell_ns.len();
    let check: usize = args.get_or("check-cell", 0) % cells;
    let mut wrong = usize::from(pass.cell_json(check) != grid.reference_cell(check));
    let table_hash = fnv1a(pass.table_json().as_bytes());
    let frozen = args.spec_seed() == default_spec_seed() && args.get::<usize>("scale") == 10;
    if frozen && table_hash != FROZEN_SCALE10_HASH {
        wrong = cells;
    }
    out.num("cells", cells as f64)
        .num("wrong_cells", wrong as f64)
        .flag("frozen_hash_checked", frozen)
        .text("table_hash", &format!("{table_hash:016x}"));

    if args.traced() {
        let layers = PassTrace::new(&trace, workers, memo0, memo1);
        layers.emit_generation_and_executor(out, &grid, 0.0);
        layers.emit_models(out, &grid);
    }
    Ok(())
}

/// `perfbench store-cold`: the store-backed grid's cold pass into a fresh
/// `--dir`, which is `store_warm`'s set-up. Reports the table hash the
/// warm passes must reproduce.
pub fn store_cold(args: &Args, out: &mut Out) -> Result<(), String> {
    let (grid, workers, trace) = setup(args);
    let dir = PathBuf::from(args.get::<String>("dir"));
    let memo0 = memo_counts();
    let (cache, _open) = StoreCache::open(&dir, &trace).map_err(|e| e.to_string())?;
    let pass = grid.run(workers, Some(&cache), &trace);
    let flush = cache.flush().map_err(|e| e.to_string())?;
    let memo1 = memo_counts();
    out.num("ready_unix_ns", unix_ns() as f64)
        .num("cells", pass.cell_ns.len() as f64)
        .text(
            "table_hash",
            &format!("{:016x}", fnv1a(pass.table_json().as_bytes())),
        );
    if args.traced() {
        let probe = cache
            .probe(2_000, &dir.with_extension("probe"))
            .map_err(|e| e.to_string())?;
        PassTrace::new(&trace, workers, memo0, memo1).emit_models(out, &grid);
        out.num("eval.store.append_us", probe.store_append_ns / 1e3)
            .num("eval.store.flush_s", flush.as_secs_f64());
    }
    Ok(())
}

/// `perfbench store-warm`: reopens the store a cold pass filled and runs
/// the grid again. Every answer must come from the store, and the table
/// must equal the cold pass byte for byte (`--expect` is its hash).
pub fn store_warm(args: &Args, out: &mut Out) -> Result<(), String> {
    let (grid, workers, trace) = setup(args);
    let dir = PathBuf::from(args.get::<String>("dir"));
    let expect: String = args.get("expect");
    out.num("ready_unix_ns", unix_ns() as f64);
    let memo0 = memo_counts();
    let t = Instant::now();
    let (cache, open) = StoreCache::open(&dir, &trace).map_err(|e| e.to_string())?;
    let pass = grid.run(workers, Some(&cache), &trace);
    cache.flush().map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let memo1 = memo_counts();
    report_pass(out, &grid, wall_s, &pass.cell_ns);

    let counts = cache.counts();
    let all_from_store = counts.store_hits == counts.lookups && counts.lookups > 0;
    let table_hash = format!("{:016x}", fnv1a(pass.table_json().as_bytes()));
    let cells = pass.cell_ns.len();
    out.num("cells", cells as f64)
        .num(
            "wrong_cells",
            if all_from_store && table_hash == expect {
                0.0
            } else {
                cells as f64
            },
        )
        .text("table_hash", &table_hash);

    if args.traced() {
        let probe = cache
            .probe(2_000, &dir.with_extension("probe"))
            .map_err(|e| e.to_string())?;
        let store_lookups_ns = counts.store_hits as f64 * probe.store_lookup_ns;
        PassTrace::new(&trace, workers, memo0, memo1).emit_generation_and_executor(
            out,
            &grid,
            store_lookups_ns,
        );
        let store_traffic = (counts.store_hits + counts.store_misses).max(1);
        out.num("eval.cache.lookups", counts.lookups as f64)
            .num(
                "eval.cache.hit_ratio",
                counts.hits as f64 / counts.lookups.max(1) as f64,
            )
            .num("eval.cache.lookup_us", probe.cache_lookup_ns / 1e3)
            .num("eval.store.open_s", open.as_secs_f64())
            .num("eval.store.lookup_us", probe.store_lookup_ns / 1e3)
            .num(
                "eval.store.hit_ratio",
                counts.store_hits as f64 / store_traffic as f64,
            )
            .num("eval.store.bytes", cache.store_bytes() as f64);
    }
    Ok(())
}
