//! The adapter: every call the benchmark makes into the ChipVQA program
//! is in this file, and nothing outside it names a program type. When
//! the program's entry points are renamed or merged (one table2 runner,
//! one shard engine), this is the one file to point at the new names.
//!
//! The rest of the benchmark sees plain data: hashes, JSON strings,
//! counts and nanoseconds.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chipvqa_core::{DatasetSpec, Question, BASE_SIZE};
use chipvqa_eval::harness::{evaluate, EvalOptions, EvalReport};
use chipvqa_eval::judge::{Judge, RuleJudge};
use chipvqa_eval::report::{ModelRow, Table2};
use chipvqa_eval::{
    AnswerCache, AnswerStore, CacheKey, CachedAnswer, FaultPlan, ParallelExecutor, StoreConfig,
    Supervisor,
};
use chipvqa_models::{backbone, encoder, ModelZoo, VlmPipeline};
use chipvqa_serve::{EvalService, ServiceConfig, SessionId, SessionReport, SessionRequest};
use chipvqa_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over bytes: the hash `tests/dataset_integrity.rs` freezes the
/// scale-10 table with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The spec seed the paper collection uses (`DatasetSpec::default()`).
pub fn default_spec_seed() -> u64 {
    DatasetSpec::default().seed
}

/// Keeps the panics a fault plan injects (and its supervisor catches)
/// off standard error.
pub fn quiet_injected_panics() {
    chipvqa_eval::fault::install_quiet_panic_hook();
}

/// Whether `DatasetSpec::scaled(scale).with_seed(seed)` generates to the
/// end. Some seeds make a question generator panic; the panic message
/// still reaches standard error.
pub fn spec_generates(scale: usize, seed: u64) -> bool {
    let spec = DatasetSpec::scaled(scale).with_seed(seed);
    std::panic::catch_unwind(|| {
        let mut stream = spec.stream(BASE_SIZE);
        while stream.next_indexed().is_some() {}
    })
    .is_ok()
}

/// Number of models in the zoo.
pub fn zoo_len() -> usize {
    ModelZoo::all().len()
}

/// Telemetry handle for one pass: a recorder when traced, else off.
pub struct Trace(Telemetry);

/// Span statistics of a traced pass, summed by the span's own name (the
/// last path element), plus counters and gauges.
#[derive(Default)]
pub struct TraceSummary {
    /// name → (count, total ns, self ns).
    pub spans: BTreeMap<String, (u64, u64, u64)>,
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
}

impl TraceSummary {
    /// `(count, total_ns, self_ns)` of a span name, zeros when absent.
    pub fn span(&self, name: &str) -> (u64, u64, u64) {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// A counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge, 0 when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

impl Trace {
    /// Recording telemetry when `on`, the disabled handle otherwise.
    pub fn new(on: bool) -> Trace {
        Trace(if on {
            Telemetry::recording()
        } else {
            Telemetry::disabled()
        })
    }

    /// Everything the recorder saw.
    pub fn summary(&self) -> TraceSummary {
        let snap = self.0.snapshot();
        let mut spans: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (path, stat) in &snap.spans {
            let name = path.rsplit('/').next().unwrap_or(path).to_string();
            let entry = spans.entry(name).or_default();
            entry.0 += stat.count;
            entry.1 += stat.total_ns;
            entry.2 += stat.self_ns;
        }
        TraceSummary {
            spans,
            counters: snap.counters,
            gauges: snap.gauges,
        }
    }
}

/// `gen::memo` solver-memo counters `(hits, misses)`, process-wide.
pub fn memo_counts() -> (u64, u64) {
    (
        chipvqa_core::gen::memo::hits(),
        chipvqa_core::gen::memo::misses(),
    )
}

/// The Table II grid: every zoo model × (with-choice, no-choice) columns
/// of one scaled spec.
pub struct Grid {
    columns: [DatasetSpec; 2],
    pipes: Vec<VlmPipeline>,
}

/// Answer-cache traffic of one pass.
#[derive(Default, Clone, Copy)]
pub struct CacheCounts {
    /// Lookups made.
    pub lookups: u64,
    /// Lookups served (memory or store).
    pub hits: u64,
    /// Memory misses the store served.
    pub store_hits: u64,
    /// Memory misses the store could not serve.
    pub store_misses: u64,
}

/// A store-backed answer cache for the grid.
pub struct StoreCache {
    cache: Arc<AnswerCache>,
    store: Arc<AnswerStore>,
}

/// Timings of single calls into the cache and store tiers.
#[derive(Default)]
pub struct TierProbe {
    /// Mean `AnswerCache::lookup` of a present key, ns.
    pub cache_lookup_ns: f64,
    /// Mean `AnswerStore::lookup` of a present key, ns.
    pub store_lookup_ns: f64,
    /// Mean `AnswerStore::insert`, ns.
    pub store_append_ns: f64,
}

impl StoreCache {
    /// Opens (and replays) the store at `dir`. Returns the cache and the
    /// time the open took.
    pub fn open(dir: &Path, trace: &Trace) -> std::io::Result<(StoreCache, Duration)> {
        let t = Instant::now();
        let store = Arc::new(AnswerStore::open_with_telemetry(
            dir,
            StoreConfig::default(),
            trace.0.clone(),
        )?);
        let open = t.elapsed();
        let cache = Arc::new(AnswerCache::new().with_store(Arc::clone(&store)));
        Ok((StoreCache { cache, store }, open))
    }

    /// Flushes buffered appends; returns the time it took.
    pub fn flush(&self) -> std::io::Result<Duration> {
        let t = Instant::now();
        self.cache.flush_store()?;
        Ok(t.elapsed())
    }

    /// Cache traffic so far.
    pub fn counts(&self) -> CacheCounts {
        let s = self.cache.stats();
        CacheCounts {
            lookups: s.hits + s.misses,
            hits: s.hits,
            store_hits: s.store_hits,
            store_misses: s.store_misses,
        }
    }

    /// Bytes the store holds on disk.
    pub fn store_bytes(&self) -> u64 {
        self.store.total_bytes()
    }

    /// Times single lookups of up to `sample` stored keys through the
    /// cache and the store, and their re-insertion into a scratch store
    /// at `scratch` (the append path, measured off the workload's own
    /// records).
    pub fn probe(&self, sample: usize, scratch: &Path) -> std::io::Result<TierProbe> {
        let entries: Vec<(CacheKey, CachedAnswer)> =
            self.store.entries().into_iter().take(sample).collect();
        let n = entries.len().max(1) as f64;
        let t = Instant::now();
        for (key, _) in &entries {
            std::hint::black_box(self.cache.lookup(key));
        }
        let cache_lookup_ns = t.elapsed().as_nanos() as f64 / n;
        let t = Instant::now();
        for (key, _) in &entries {
            std::hint::black_box(self.store.lookup(key));
        }
        let store_lookup_ns = t.elapsed().as_nanos() as f64 / n;
        // a fresh scratch store each time: the append path, not replay
        let _ = std::fs::remove_dir_all(scratch);
        let fresh = AnswerStore::open(scratch)?;
        let t = Instant::now();
        for (key, answer) in entries {
            fresh.insert(key, answer);
        }
        let store_append_ns = t.elapsed().as_nanos() as f64 / n;
        fresh.flush()?;
        Ok(TierProbe {
            cache_lookup_ns,
            store_lookup_ns,
            store_append_ns,
        })
    }
}

impl Grid {
    /// The grid over `DatasetSpec::scaled(scale).with_seed(seed)` and the
    /// same spec at `mc_sa_ratio` 0.
    pub fn new(scale: usize, seed: u64) -> Grid {
        let standard = DatasetSpec::scaled(scale).with_seed(seed);
        let challenge = standard.clone().with_mc_sa_ratio(0.0);
        Grid {
            columns: [standard, challenge],
            pipes: ModelZoo::all().into_iter().map(VlmPipeline::new).collect(),
        }
    }

    /// Questions in one column.
    pub fn questions_per_column(&self) -> usize {
        self.columns[0].total()
    }

    /// (model, question) evaluations in one pass.
    pub fn evaluations(&self) -> usize {
        self.pipes.len() * 2 * self.questions_per_column()
    }

    /// One streamed pass: each (model, column) cell through
    /// `ParallelExecutor::evaluate_spec_stream`, as the `table2` binary
    /// runs it.
    pub fn run(&self, workers: usize, cache: Option<&StoreCache>, trace: &Trace) -> GridPass {
        let mut exec = ParallelExecutor::new(workers).with_telemetry(trace.0.clone());
        if let Some(c) = cache {
            exec = exec.with_cache(Arc::clone(&c.cache));
        }
        let mut cell_ns = Vec::with_capacity(self.pipes.len() * 2);
        let rows: Vec<ModelRow> = self
            .pipes
            .iter()
            .map(|pipe| {
                let [standard, challenge] = self.columns.each_ref().map(|spec| {
                    let t = Instant::now();
                    let report = exec
                        .evaluate_spec_stream(pipe, spec, BASE_SIZE, EvalOptions::default())
                        .0;
                    cell_ns.push(t.elapsed().as_nanos() as u64);
                    report
                });
                ModelRow {
                    standard,
                    challenge,
                }
            })
            .collect();
        GridPass {
            table: Table2 { rows },
            cell_ns,
        }
    }

    /// Cell `cell` (model-major, with-choice column first) computed
    /// outside the executor: the sequential harness over the
    /// materialised collection.
    pub fn reference_cell(&self, cell: usize) -> String {
        let (model, column) = (cell / 2, cell % 2);
        let bench = self.columns[column].build();
        report_json(evaluate(&self.pipes[model], &bench, EvalOptions::default()))
    }

    /// Times `DatasetSpec::stream` / `next_indexed` over both columns.
    /// Returns (questions, ns).
    pub fn generation_probe(&self) -> (u64, u64) {
        let mut questions = 0u64;
        let t = Instant::now();
        for spec in &self.columns {
            let mut stream = spec.stream(BASE_SIZE);
            while let Some((_, shard)) = stream.next_indexed() {
                questions += shard.len() as u64;
                std::hint::black_box(&shard);
            }
        }
        (questions, t.elapsed().as_nanos() as u64)
    }

    /// Times the per-evaluation layers single-threaded over every
    /// `stride`-th question of both columns × every model. Also counts
    /// distinct (question, total downsample factor) pairs over the whole
    /// grid against perception calls.
    pub fn layer_probe(&self, stride: usize) -> LayerProbe {
        let mut probe = LayerProbe::default();
        let mut distinct: HashSet<(String, usize)> = HashSet::new();
        let mut calls = 0u64;
        for spec in &self.columns {
            let bench = spec.build();
            for (i, q) in bench.iter().enumerate() {
                for pipe in &self.pipes {
                    calls += 1;
                    distinct.insert((q.id.clone(), total_factor(pipe, q)));
                }
                if i % stride == 0 {
                    for pipe in &self.pipes {
                        probe.time_one(pipe, q, i as u64);
                    }
                }
            }
        }
        probe.distinct_ratio = distinct.len() as f64 / calls.max(1) as f64;
        probe
    }
}

/// What one grid pass produced.
pub struct GridPass {
    table: Table2,
    /// Each cell's wall time, ns, model-major, with-choice column first.
    pub cell_ns: Vec<u64>,
}

impl GridPass {
    /// The table's canonical JSON: `cache_stats` nulled, as
    /// `table2 --report-json` writes it.
    pub fn table_json(&self) -> String {
        table_json(self.table.clone())
    }

    /// Cell `cell`'s canonical report JSON (model-major, with-choice
    /// column first).
    pub fn cell_json(&self, cell: usize) -> String {
        let row = &self.table.rows[cell / 2];
        report_json(
            if cell.is_multiple_of(2) {
                &row.standard
            } else {
                &row.challenge
            }
            .clone(),
        )
    }
}

/// Single-threaded per-call timings of perception, backbone and judge.
#[derive(Default)]
pub struct LayerProbe {
    /// Calls timed.
    pub calls: u64,
    /// ns in `encoder::perceive`.
    pub perceive_ns: u64,
    /// ns in `backbone::answer`.
    pub backbone_ns: u64,
    /// ns in `RuleJudge::verdict`.
    pub judge_ns: u64,
    /// Distinct (question, total factor) pairs ÷ perception calls.
    pub distinct_ratio: f64,
}

impl LayerProbe {
    fn time_one(&mut self, pipe: &VlmPipeline, q: &Question, seed: u64) {
        let profile = pipe.profile();
        let mut rng = StdRng::seed_from_u64(seed ^ pipe.fingerprint());
        let t = Instant::now();
        let percept = encoder::perceive(profile, q, 1, &mut rng);
        let t_perceive = t.elapsed();
        let t = Instant::now();
        let answer = backbone::answer(profile, q, &percept, 0.1, &mut rng);
        let t_backbone = t.elapsed();
        let t = Instant::now();
        std::hint::black_box(RuleJudge::new().verdict(q, &answer.text, 0));
        let t_judge = t.elapsed();
        self.calls += 1;
        self.perceive_ns += t_perceive.as_nanos() as u64;
        self.backbone_ns += t_backbone.as_nanos() as u64;
        self.judge_ns += t_judge.as_nanos() as u64;
    }
}

/// The total factor `encoder::perceive` downsamples by at external
/// factor 1: the resize the model's encoder resolution forces.
fn total_factor(pipe: &VlmPipeline, q: &Question) -> usize {
    let image = &q.visual.image;
    let max_dim = image.width().max(image.height()).max(1);
    max_dim.div_ceil(pipe.profile().encoder_resolution).max(1)
}

fn report_json(mut report: EvalReport) -> String {
    report.cache_stats = None;
    serde_json::to_string(&report).expect("report serializes")
}

fn table_json(mut table: Table2) -> String {
    for row in &mut table.rows {
        row.standard.cache_stats = None;
        row.challenge.cache_stats = None;
    }
    serde_json::to_string(&table).expect("table serializes")
}

/// One serving request, as the load generator draws it.
#[derive(Clone)]
pub struct Request(SessionRequest);

impl Request {
    /// A single-model session over the default-size collection with spec
    /// seed `spec_seed`, evaluated at external downsample factor
    /// `downsample`; streamed with shard length `stream` when given;
    /// supervised under a uniform fault plan `(seed, rate)` when given.
    pub fn new(
        tenant: &str,
        model: usize,
        spec_seed: u64,
        downsample: usize,
        stream: Option<usize>,
        fault: Option<(u64, f64)>,
    ) -> Request {
        let profile = ModelZoo::all().swap_remove(model);
        let mut req = SessionRequest::single(tenant, profile)
            .with_spec(DatasetSpec::default().with_seed(spec_seed))
            .with_options(EvalOptions {
                downsample,
                ..EvalOptions::default()
            });
        if let Some(len) = stream {
            req = req.with_streaming(len);
        }
        if let Some((seed, rate)) = fault {
            req = req.with_fault_plan(FaultPlan::uniform(seed, rate));
        }
        Request(req)
    }

    /// Questions the session evaluates.
    pub fn questions(&self) -> usize {
        self.0.spec.total() * self.0.models.len()
    }

    /// The session's canonical report computed outside the service, as
    /// `batch_reference_report` does it: the sequential harness over the
    /// built collection, or the supervised batch executor when the
    /// session carries a fault plan.
    pub fn reference(&self) -> String {
        let bench = self.0.spec.build();
        let reports = self
            .0
            .models
            .iter()
            .map(|profile| {
                let pipe = VlmPipeline::new(profile.clone());
                match &self.0.fault_plan {
                    Some(plan) => ParallelExecutor::new(1)
                        .with_supervisor(Supervisor::new(plan.clone()))
                        .evaluate(&pipe, &bench, self.0.options),
                    None => evaluate(&pipe, &bench, self.0.options),
                }
            })
            .collect();
        SessionReport::new(reports).canonical_json()
    }
}

/// A session's terminal view.
pub struct Finished {
    /// `SessionState` label.
    pub state: &'static str,
    /// Time queued, ns.
    pub queue_wait_ns: u64,
    /// Submission to terminal state, ns.
    pub total_ns: u64,
    /// Canonical report of a done session.
    pub report: Option<String>,
}

/// The in-process resident service.
pub struct Service(EvalService);

/// Every `ShedReason` label, in declaration order.
pub const SHED_LABELS: [&str; 4] = [
    "queue_full",
    "tenant_saturated",
    "tenant_breaker_open",
    "shutting_down",
];

impl Service {
    /// Starts a service with no store, `runners` × `workers` threads,
    /// and admission sized so `queue` sessions may wait.
    pub fn start(runners: usize, workers: usize, queue: usize) -> Service {
        let mut config = ServiceConfig {
            runners,
            workers,
            store_dir: None,
            ..ServiceConfig::default()
        };
        config.admission.queue_capacity = queue;
        config.admission.tenant_in_flight_limit = queue;
        config.admission.tenant_running_quota = runners;
        Service(EvalService::start(config).expect("no store configured"))
    }

    /// Submits; the session id, or the shed label.
    pub fn submit(&self, request: &Request) -> Result<u64, &'static str> {
        self.0
            .submit(request.0.clone())
            .map(|id| id.0)
            .map_err(|shed| shed.label())
    }

    /// Waits up to `timeout` for a terminal state; `None` when the
    /// session is still live (lost, for the benchmark).
    pub fn finish(&self, id: u64, timeout: Duration) -> Option<Finished> {
        let id = SessionId(id);
        self.0.wait(id, timeout).ok()?;
        let snap = self.0.snapshot(id).ok()?;
        Some(Finished {
            state: snap.state.label(),
            queue_wait_ns: snap.queue_wait_ns.unwrap_or(0),
            total_ns: snap.total_ns.unwrap_or(0),
            report: self.0.report(id).ok().map(|r| r.canonical_json()),
        })
    }

    /// Sessions waiting in the run queue.
    pub fn queue_depth(&self) -> usize {
        self.0.stats().queue_depth
    }

    /// Traffic of the service's shared answer cache.
    pub fn cache_counts(&self) -> CacheCounts {
        let c = self.0.cache_stats();
        CacheCounts {
            lookups: c.hits + c.misses,
            hits: c.hits,
            store_hits: c.store_hits,
            store_misses: c.store_misses,
        }
    }

    /// Graceful stop; joins every service thread.
    pub fn shutdown(mut self) {
        self.0.shutdown().expect("no store to flush");
    }
}

/// Times `AnswerCache::lookup` of present keys in a memory-only cache
/// filled with `n` synthetic answers. Returns mean ns per lookup.
pub fn memory_cache_lookup_ns(n: usize) -> f64 {
    let cache = AnswerCache::new();
    let bench = DatasetSpec::default().build();
    let pipe = VlmPipeline::new(ModelZoo::gpt4o());
    let keys: Vec<CacheKey> = bench
        .iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(i, q)| CacheKey::for_dataset(pipe.fingerprint(), 0, q, 1, i as u64))
        .collect();
    let answer = CachedAnswer::from(&pipe.infer(&bench.questions()[0], 1, 0));
    for key in &keys {
        cache.insert(key.clone(), answer.clone());
    }
    let t = Instant::now();
    for key in &keys {
        std::hint::black_box(cache.lookup(key));
    }
    t.elapsed().as_nanos() as f64 / keys.len().max(1) as f64
}
