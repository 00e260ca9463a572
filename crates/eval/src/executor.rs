//! The shard engine: parallel evaluation through one source → engine →
//! sink path.
//!
//! Every way of running shards — a materialised bench, a lazily
//! generated [`DatasetSpec`] stream, a checkpoint's pending set, a fleet
//! worker's claimed shard, a streamed quarantine requeue — is the same
//! engine fed by a different **source** of `(ShardKey, questions)`
//! pairs:
//!
//! * the calling thread pulls shards from the source (generating them,
//!   for a spec stream, so generation overlaps inference) and, under a
//!   [`Supervisor`], seals each shard's admit vector with one
//!   [`WindowedBreaker`] per model driven in global question order;
//! * workers take sealed shards from a bounded channel and run one
//!   per-question function (optional supervision, `catch_unwind` on
//!   every path, cache keyed by the source's dataset fingerprint);
//! * one positional merge turns the shards' outcomes into per-model
//!   reports for the **sink** — the caller's merged reports, a
//!   [`Checkpoint`](crate::checkpoint::Checkpoint), or a fleet commit.
//!
//! Because the VLM pipeline is deterministic per (model, question,
//! attempt), breaker decisions depend only on question positions, and
//! merging is positional, every report is *identical* — not just
//! statistically equal — to the sequential
//! [`evaluate`](crate::harness::evaluate) result, for any worker count,
//! shard length and source.
//!
//! Optional layers on the same path:
//!
//! * an [`AnswerCache`] that memoises model answers across runs (a warm
//!   cache skips inference entirely and re-judges the stored answers);
//! * a [`RetryPolicy`] that re-queries a flaky judge (e.g.
//!   [`NoisyJudge`](crate::noisy::NoisyJudge)) several times per verdict
//!   and takes the majority, with seeded exponential backoff between
//!   attempts. The default policy (one attempt, no backoff) reproduces
//!   single-shot judging bit-for-bit;
//! * a [`Supervisor`] that hardens the run against infrastructure
//!   failure: per-call deadlines, bounded retries, a per-model windowed
//!   circuit breaker, and panic isolation (one poisoned question
//!   quarantines its shard instead of aborting the run). With the
//!   all-zero [`FaultPlan`](crate::fault::FaultPlan) the supervised path
//!   is byte-identical to the unsupervised one.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use chipvqa_core::question::Question;
use chipvqa_core::spec::{DatasetSpec, ShardStream};
use chipvqa_core::ChipVqa;
use chipvqa_models::backbone::AnswerPath;
use chipvqa_models::VlmPipeline;
use chipvqa_telemetry::{kv, Telemetry};
use serde::{Deserialize, Serialize};

use crate::cache::{AnswerCache, CacheKey, CachedAnswer};
use crate::harness::{EvalOptions, EvalReport, QuestionOutcome};
use crate::judge::{Judge, RuleJudge};
use crate::supervisor::{EvalError, Supervisor, WindowedBreaker, BREAKER_WINDOW};

/// How many questions one shard of a materialised bench covers. Small
/// enough that 8 workers on one 142-question model all stay busy, large
/// enough that shard bookkeeping is negligible against inference.
pub const SHARD_SIZE: usize = 16;

// A selected shard repositions its model's breaker at the shard's first
// question, which is exact only when shards start on window boundaries.
const _: () = assert!(SHARD_SIZE == BREAKER_WINDOW);

/// Judge retry behaviour for one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Judge queries per verdict; the majority wins (ties fall to the
    /// first attempt, so `attempts = 1` is exactly single-shot judging).
    pub attempts: u64,
    /// Base backoff before each re-query, in milliseconds; attempt `i`
    /// waits `backoff_base_ms << (i - 1)` plus seeded jitter. Zero (the
    /// default) disables sleeping, which is right for in-process judges.
    pub backoff_base_ms: u64,
    /// Seed for the backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff_base_ms: 0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Majority vote over `attempts` queries of a possibly-flaky judge.
    pub fn with_attempts(attempts: u64) -> Self {
        assert!(attempts >= 1, "at least one judge attempt required");
        RetryPolicy {
            attempts,
            ..RetryPolicy::default()
        }
    }

    /// Judges `response` under this policy.
    pub fn judged(&self, judge: &dyn Judge, question: &Question, response: &str) -> bool {
        let first = judge.verdict(question, response, 0);
        if self.attempts <= 1 {
            return first;
        }
        let mut yes = u64::from(first);
        for attempt in 1..self.attempts {
            self.sleep_backoff(question, attempt);
            if judge.verdict(question, response, attempt) {
                yes += 1;
            }
        }
        // strict majority, ties to the first attempt
        if 2 * yes == self.attempts {
            first
        } else {
            2 * yes > self.attempts
        }
    }

    pub(crate) fn sleep_backoff(&self, question: &Question, attempt: u64) {
        if self.backoff_base_ms == 0 {
            return;
        }
        let base = self.backoff_base_ms << (attempt - 1).min(16);
        let jitter = seeded_jitter_ms(self.seed, &question.id, attempt, base);
        std::thread::sleep(std::time::Duration::from_millis(base + jitter));
    }
}

/// Seeded jitter in `[0, base)`: deterministic per (seed, question,
/// attempt), so reruns sleep identically. Shared by [`RetryPolicy`] and
/// the [`Supervisor`]'s recovery backoff.
pub(crate) fn seeded_jitter_ms(seed: u64, question_id: &str, attempt: u64, base: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in question_id.bytes().chain(attempt.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    if base == 0 {
        0
    } else {
        h % base
    }
}

/// One unit of work: a contiguous question range of one model.
/// Checkpoints and fleet records name shards by key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardKey {
    /// Model index in the grid.
    pub model_idx: usize,
    /// First question index (inclusive).
    pub q_start: usize,
    /// Last question index (exclusive).
    pub q_end: usize,
}

/// The canonical shard plan of a grid: model-major, [`SHARD_SIZE`]
/// questions per shard.
pub(crate) fn shard_keys(models: usize, questions: usize) -> Vec<ShardKey> {
    (0..models)
        .flat_map(|model_idx| {
            (0..questions)
                .step_by(SHARD_SIZE)
                .map(move |q_start| ShardKey {
                    model_idx,
                    q_start,
                    q_end: (q_start + SHARD_SIZE).min(questions),
                })
        })
        .collect()
}

/// What a source yields: a shard's key and its questions, borrowed from
/// a materialised bench or owned when generated.
type SourceShard<'q> = (ShardKey, Cow<'q, [Question]>);

/// What the engine returns for one shard: its key and its outcomes in
/// question order.
pub(crate) type ShardOutcomes = (ShardKey, Vec<QuestionOutcome>);

/// Parallel evaluator producing sequential-identical reports.
///
/// Worker threads are scoped per call: every entry point joins its
/// workers before returning, so a driver that returns from (or stops
/// calling) the executor has no evaluation threads left running. The
/// resident service (`chipvqa-serve`) builds its cancel-at-batch-
/// boundary and graceful-shutdown guarantees directly on this property
/// plus [`evaluate_grid_resumable`](ParallelExecutor::evaluate_grid_resumable)'s
/// bounded `max_shards` budget.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    workers: usize,
    retry: RetryPolicy,
    cache: Option<Arc<AnswerCache>>,
    supervisor: Option<Arc<Supervisor>>,
    telemetry: Telemetry,
}

impl ParallelExecutor {
    /// An executor with `workers` threads (clamped to at least one), no
    /// cache, single-shot judging, unsupervised execution, telemetry
    /// disabled.
    pub fn new(workers: usize) -> Self {
        ParallelExecutor {
            workers: workers.max(1),
            retry: RetryPolicy::default(),
            cache: None,
            supervisor: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a shared answer cache; hits skip inference.
    pub fn with_cache(mut self, cache: Arc<AnswerCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the judge retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.attempts >= 1, "at least one judge attempt required");
        self.retry = retry;
        self
    }

    /// Attaches a [`Supervisor`]: per-call fault injection + recovery,
    /// circuit breaking, and panic isolation. A supervisor whose fault
    /// plan is all-zero leaves reports byte-identical to the
    /// unsupervised path.
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = Some(Arc::new(supervisor));
        self
    }

    /// Attaches a [`Telemetry`] handle; every worker, the supervisor and
    /// the cache path report through it. The default is
    /// [`Telemetry::disabled`], which costs one branch per call site.
    /// Telemetry never influences results: reports stay byte-identical
    /// whether it is enabled or not.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The attached telemetry handle (disabled unless configured).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<AnswerCache>> {
        self.cache.as_ref()
    }

    /// The attached supervisor, if any.
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.as_ref()
    }

    /// A copy of this executor with the supervisor detached (cache,
    /// retry policy and telemetry are kept). The calm twin of a
    /// supervised executor: used by fleet healing and the streamed
    /// requeue to re-run a quarantined shard without fault injection,
    /// matching
    /// [`requeue_quarantined`](crate::checkpoint::Checkpoint::requeue_quarantined)
    /// semantics.
    pub fn unsupervised(&self) -> ParallelExecutor {
        ParallelExecutor {
            supervisor: None,
            ..self.clone()
        }
    }

    /// Evaluates one model with the default rule judge.
    pub fn evaluate(
        &self,
        pipe: &VlmPipeline,
        bench: &ChipVqa,
        options: EvalOptions,
    ) -> EvalReport {
        self.evaluate_with_judge(pipe, bench, options, &RuleJudge::new())
    }

    /// Evaluates one model with a caller-supplied judge.
    pub fn evaluate_with_judge(
        &self,
        pipe: &VlmPipeline,
        bench: &ChipVqa,
        options: EvalOptions,
        judge: &dyn Judge,
    ) -> EvalReport {
        self.evaluate_grid(std::slice::from_ref(pipe), bench, options, judge)
            .pop()
            .expect("one model")
    }

    /// Evaluates every model of a grid, returning reports in model order.
    pub fn evaluate_grid(
        &self,
        pipes: &[VlmPipeline],
        bench: &ChipVqa,
        options: EvalOptions,
        judge: &dyn Judge,
    ) -> Vec<EvalReport> {
        let keys = shard_keys(pipes.len(), bench.len());
        let done = self.run_bench(pipes, bench, &keys, options, judge, 0);
        self.finalize(merge(pipes, bench.len(), done))
    }

    /// Streaming evaluation of a [`DatasetSpec`]: shards of `shard_len`
    /// questions are generated on the calling thread as the workers
    /// consume them, so generation overlaps inference and the whole
    /// collection is never materialised. Answer-cache keys are bound to
    /// the spec's fingerprint. Returns the report plus [`StreamStats`]
    /// whose `generator_peak_resident` records the [`ShardStream`]'s
    /// high-water mark.
    ///
    /// # Panics
    ///
    /// Panics when `shard_len` is zero or when the spec is invalid.
    pub fn evaluate_spec_stream(
        &self,
        pipe: &VlmPipeline,
        spec: &DatasetSpec,
        shard_len: usize,
        options: EvalOptions,
    ) -> (EvalReport, StreamStats) {
        let pipes = std::slice::from_ref(pipe);
        let mut source = SpecShards {
            stream: spec.stream(shard_len),
            select: None,
            tele: self.telemetry.clone(),
        };
        let (done, mut stats) = self.run(
            pipes,
            &mut source,
            true,
            options,
            &RuleJudge::new(),
            spec.fingerprint(),
        );
        stats.generator_peak_resident = Some(source.stream.peak_resident());
        let report = self.finalize(merge(pipes, stats.questions, done)).pop();
        (report.expect("one model"), stats)
    }

    /// Heals a *streamed* supervised report the way
    /// [`requeue_quarantined`](crate::checkpoint::Checkpoint::requeue_quarantined)
    /// heals a checkpointed one: every shard containing a
    /// [`EvalError::WorkerPanic`] outcome is regenerated from the spec
    /// (the clean shards before it are generated and skipped, never
    /// evaluated) and re-run *unsupervised*, and the healed outcomes are
    /// patched back positionally. Returns the number of shards healed.
    /// `shard_len` must match the original streamed run, and `report`
    /// must cover the full spec.
    pub fn requeue_quarantined_stream(
        &self,
        pipe: &VlmPipeline,
        spec: &DatasetSpec,
        shard_len: usize,
        options: EvalOptions,
        report: &mut EvalReport,
    ) -> usize {
        assert!(shard_len > 0, "shard_len must be positive");
        assert_eq!(
            report.outcomes.len(),
            spec.total(),
            "report must cover the full spec"
        );
        let quarantined: BTreeSet<usize> = report
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.error == Some(EvalError::WorkerPanic))
            .map(|(pos, _)| pos / shard_len)
            .collect();
        if quarantined.is_empty() {
            return 0;
        }
        let healed = quarantined.len();
        if self.telemetry.enabled() {
            self.telemetry
                .counter("stream.requeue.shards", healed as u64);
        }
        let source = SpecShards {
            stream: spec.stream(shard_len),
            select: Some(quarantined),
            tele: self.telemetry.clone(),
        };
        let (done, _) = self.unsupervised().run(
            std::slice::from_ref(pipe),
            source,
            true,
            options,
            &RuleJudge::new(),
            spec.fingerprint(),
        );
        for (key, outcomes) in done {
            for (slot, outcome) in report.outcomes[key.q_start..key.q_end]
                .iter_mut()
                .zip(outcomes)
            {
                *slot = outcome;
            }
        }
        healed
    }

    /// Stamps run metadata onto finished reports: the cache's traffic
    /// stats when a cache is attached. Results themselves are untouched.
    /// Also flushes the cache's persistent store (if one is attached),
    /// so a run that completes normally is durable on disk — the stats
    /// are read *after* the flush so `lifetime_*` counters include this
    /// run.
    pub(crate) fn finalize(&self, mut reports: Vec<EvalReport>) -> Vec<EvalReport> {
        if let Some(cache) = &self.cache {
            if let Err(e) = cache.flush_store() {
                self.telemetry
                    .event("store.flush_error", vec![kv("error", e.to_string())]);
            }
            let stats = cache.stats();
            for report in &mut reports {
                report.cache_stats = Some(stats);
            }
        }
        reports
    }

    /// Runs the selected `keys` of a materialised bench, handing the
    /// engine borrowed question slices. Answers are cached under
    /// `dataset_fp` (0 for a bench built without a [`DatasetSpec`]).
    /// Returns each shard's outcomes in `keys` order.
    pub(crate) fn run_bench(
        &self,
        pipes: &[VlmPipeline],
        bench: &ChipVqa,
        keys: &[ShardKey],
        options: EvalOptions,
        judge: &dyn Judge,
        dataset_fp: u64,
    ) -> Vec<ShardOutcomes> {
        let questions = bench.questions();
        let source = keys
            .iter()
            .map(|&key| (key, Cow::Borrowed(&questions[key.q_start..key.q_end])));
        self.run(pipes, source, false, options, judge, dataset_fp).0
    }

    /// The engine. The calling thread pulls shards from `source` —
    /// `generated` says pulling does real work (a spec stream) that
    /// should overlap inference — seals each one's admit vector under a
    /// supervisor, and hands it to the workers through a bounded
    /// channel. In-flight questions (queued plus held by workers) are
    /// tracked, and never exceed `(2·workers + 1)` shards. A
    /// materialised source with one worker has nothing to overlap, so
    /// the calling thread evaluates its shards itself — which also
    /// makes a one-worker trace a deterministic artifact.
    ///
    /// Returns each shard's outcomes in source order.
    fn run<'q>(
        &self,
        pipes: &[VlmPipeline],
        mut source: impl Iterator<Item = SourceShard<'q>>,
        generated: bool,
        options: EvalOptions,
        judge: &dyn Judge,
        dataset_fp: u64,
    ) -> (Vec<ShardOutcomes>, StreamStats) {
        let tele = &self.telemetry;
        let threads = self
            .workers
            .min(source.size_hint().1.unwrap_or(usize::MAX))
            .max(1);
        let inline = !generated && threads == 1;
        let _run_span = if tele.enabled() {
            tele.span_kv(
                "executor.run",
                vec![kv("models", pipes.len()), kv("workers", threads)],
            )
        } else {
            tele.span("executor.run")
        };
        let peak_in_flight = Arc::new(AtomicUsize::new(0));
        // emits the run's lifetime gauges even if generation or a
        // worker panic unwinds the scope below
        let _gauges = RunGaugeGuard {
            tele: tele.clone(),
            peak_in_flight: Arc::clone(&peak_in_flight),
            cache: self.cache.clone(),
        };

        let worker = ShardWorker {
            pipes,
            options,
            judge,
            retry: self.retry,
            cache: self.cache.as_deref(),
            supervisor: self.supervisor.as_deref(),
            tele,
            dataset_fp,
        };
        let mut breakers: Vec<Option<WindowedBreaker>> = vec![None; pipes.len()];
        type Sealed<'q> = (usize, ShardKey, Cow<'q, [Question]>, Option<Vec<bool>>);
        let (tx, rx) = mpsc::sync_channel::<Sealed<'q>>(threads);
        let rx = Mutex::new(rx);
        let in_flight = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, ShardOutcomes)>> = Mutex::new(Vec::new());
        let finish = |(idx, key, questions, admits): Sealed<'q>| {
            let outcomes = worker.run(key, &questions, admits.as_deref());
            in_flight.fetch_sub(questions.len(), Ordering::Relaxed);
            done.lock()
                .expect("no worker panics holding the results")
                .push((idx, (key, outcomes)));
        };
        let mut shards = 0usize;
        let mut questions = 0usize;

        {
            let _stream_span = tele.span("executor.stream");
            std::thread::scope(|scope| {
                for _ in 0..if inline { 0 } else { threads } {
                    let (rx, finish) = (&rx, &finish);
                    scope.spawn(move || loop {
                        let received = rx
                            .lock()
                            .expect("no worker panics holding the receiver")
                            .recv();
                        let Ok(sealed) = received else { break };
                        finish(sealed);
                    });
                }
                loop {
                    let next = {
                        let _t = tele.timer("stream.generate_ns");
                        let _g = tele.span("stream.generate");
                        source.next()
                    };
                    let Some((key, shard)) = next else { break };
                    let admits = worker.supervisor.map(|sup| {
                        seal(
                            sup,
                            &mut breakers[key.model_idx],
                            &pipes[key.model_idx],
                            key,
                            &shard,
                            tele,
                        )
                    });
                    shards += 1;
                    questions += shard.len();
                    let now = in_flight.fetch_add(shard.len(), Ordering::Relaxed) + shard.len();
                    peak_in_flight.fetch_max(now, Ordering::Relaxed);
                    if tele.enabled() {
                        tele.counter("stream.shard_generated", 1);
                        tele.counter("stream.questions", shard.len() as u64);
                    }
                    let sealed = (shards - 1, key, shard, admits);
                    if inline {
                        finish(sealed);
                    } else if tx.send(sealed).is_err() {
                        break; // all workers gone (cannot happen unpanicked)
                    }
                }
                drop(tx); // closes the channel; workers drain and exit
            });
        }

        let mut done = done
            .into_inner()
            .expect("no worker panics holding the results");
        done.sort_by_key(|&(idx, _)| idx);
        let done: Vec<ShardOutcomes> = done.into_iter().map(|(_, shard)| shard).collect();
        let quarantined_shards = done
            .iter()
            .filter(|(_, outcomes)| {
                outcomes
                    .iter()
                    .any(|o| o.error == Some(EvalError::WorkerPanic))
            })
            .count();
        let stats = StreamStats {
            shards,
            questions,
            peak_in_flight: peak_in_flight.load(Ordering::Relaxed),
            generator_peak_resident: None,
            quarantined_shards,
        };
        (done, stats)
    }
}

/// Decides every question of one shard through its model's windowed
/// breaker, in global question order. A breaker that did not just
/// decide the question before `key.q_start` — the first shard of a
/// model, or a selected shard after a gap — is repositioned at the
/// shard's window; state resets at window boundaries, so that yields
/// the decisions a breaker walking the whole prefix would.
fn seal(
    sup: &Supervisor,
    breaker: &mut Option<WindowedBreaker>,
    pipe: &VlmPipeline,
    key: ShardKey,
    questions: &[Question],
    tele: &Telemetry,
) -> Vec<bool> {
    let _span = tele.span("breaker.seal");
    if breaker
        .as_ref()
        .is_some_and(|wb| wb.next_index() != key.q_start)
    {
        *breaker = None;
    }
    let wb = breaker.get_or_insert_with(|| {
        debug_assert_eq!(key.q_start % BREAKER_WINDOW, 0, "shard off a window");
        sup.stream_breaker_at(key.q_start / BREAKER_WINDOW)
    });
    let fingerprint = pipe.fingerprint();
    questions
        .iter()
        .map(|q| sup.admit_traced(wb, fingerprint, &q.id, tele))
        .collect()
}

/// Everything a worker needs to evaluate a shard.
struct ShardWorker<'a> {
    pipes: &'a [VlmPipeline],
    options: EvalOptions,
    judge: &'a dyn Judge,
    retry: RetryPolicy,
    cache: Option<&'a AnswerCache>,
    supervisor: Option<&'a Supervisor>,
    tele: &'a Telemetry,
    dataset_fp: u64,
}

impl ShardWorker<'_> {
    /// Evaluates one sealed shard under a `stream.shard` span carrying
    /// `model`/`q_start`/`q_end` (the span the resident service turns
    /// into progress events). Shed questions never run; a panic — an
    /// injected fault or a genuine bug — is caught and becomes an
    /// [`EvalError::WorkerPanic`] outcome, quarantining the shard
    /// instead of aborting the run.
    fn run(
        &self,
        key: ShardKey,
        questions: &[Question],
        admits: Option<&[bool]>,
    ) -> Vec<QuestionOutcome> {
        let tele = self.tele;
        let pipe = &self.pipes[key.model_idx];
        let _span = if tele.enabled() {
            tele.span_kv(
                "stream.shard",
                vec![
                    kv("model", &pipe.profile().name),
                    kv("q_start", key.q_start),
                    kv("q_end", key.q_end),
                ],
            )
        } else {
            tele.span("stream.shard")
        };
        let outcomes = questions
            .iter()
            .enumerate()
            .map(|(offset, q)| {
                let _t = tele.timer("executor.question_ns");
                let _q = tele.span("executor.question");
                if admits.is_some_and(|admits| !admits[offset]) {
                    tele.counter("breaker.shed", 1);
                    return failed_outcome(q, EvalError::BreakerOpen);
                }
                std::panic::catch_unwind(AssertUnwindSafe(|| self.question(pipe, q)))
                    .unwrap_or_else(|_| {
                        if tele.enabled() {
                            tele.counter("executor.panic_caught", 1);
                            tele.event("worker.panic", vec![kv("question", &q.id)]);
                        }
                        failed_outcome(q, EvalError::WorkerPanic)
                    })
            })
            .collect();
        tele.counter("stream.shard_evaluated", 1);
        outcomes
    }

    /// The sequential harness's per-question loop, with the cache
    /// interposed before inference and the retry policy around the
    /// judge. Supervised, every inference and judge call goes through
    /// the supervisor's fault injection + recovery, and the first
    /// terminal failure at any site aborts the question with a
    /// structured error (degraded truncated/garbled evidence is kept as
    /// the recorded response).
    fn question(&self, pipe: &VlmPipeline, q: &Question) -> QuestionOutcome {
        let (tele, cache) = (self.tele, self.cache);
        let options = self.options;
        let mut passed = false;
        let mut first_response = String::new();
        let mut first_path = AnswerPath::Failed;
        let mut error = None;
        for attempt in 0..options.attempts.max(1) {
            let answer = match self.supervisor {
                Some(sup) => sup.infer(
                    pipe,
                    q,
                    options.downsample,
                    attempt,
                    cache,
                    tele,
                    self.dataset_fp,
                ),
                None => Ok(infer_cached_for(
                    pipe,
                    q,
                    options.downsample,
                    attempt,
                    cache,
                    tele,
                    self.dataset_fp,
                )),
            };
            let answer = match answer {
                Ok(answer) => answer,
                Err((e, degraded)) => {
                    if attempt == 0 {
                        if let Some(text) = degraded {
                            first_response = text;
                        }
                    }
                    error = Some(e);
                    break;
                }
            };
            if attempt == 0 {
                first_response = answer.text.clone();
                first_path = answer.path;
            }
            let judged = {
                let _span = tele.span("judge");
                match self.supervisor {
                    Some(sup) => sup.judged(
                        self.judge,
                        &self.retry,
                        pipe.fingerprint(),
                        q,
                        &answer.text,
                        tele,
                    ),
                    None => Ok(self.retry.judged(self.judge, q, &answer.text)),
                }
            };
            match judged {
                Ok(true) => {
                    passed = true;
                    break;
                }
                Ok(false) => {}
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        if error.is_none() {
            note_verdict(tele, q, passed);
        }
        QuestionOutcome {
            id: q.id.clone(),
            category: q.category,
            passed: passed && error.is_none(),
            response: first_response,
            path: first_path,
            error,
        }
    }
}

/// The positional merge every sink shares: each shard's outcomes land
/// at their key's positions, giving one report per model of `questions`
/// outcomes, in model order.
///
/// # Panics
///
/// Panics when a shard's outcome count disagrees with its key or the
/// shards leave a position uncovered.
pub(crate) fn merge(
    pipes: &[VlmPipeline],
    questions: usize,
    done: impl IntoIterator<Item = ShardOutcomes>,
) -> Vec<EvalReport> {
    let mut per_model: Vec<Vec<Option<QuestionOutcome>>> =
        pipes.iter().map(|_| vec![None; questions]).collect();
    for (key, outcomes) in done {
        assert_eq!(outcomes.len(), key.q_end - key.q_start, "shard shape");
        for (slot, outcome) in per_model[key.model_idx][key.q_start..key.q_end]
            .iter_mut()
            .zip(outcomes)
        {
            *slot = Some(outcome);
        }
    }
    pipes
        .iter()
        .zip(per_model)
        .map(|(pipe, slots)| EvalReport {
            model: pipe.profile().name.clone(),
            outcomes: slots
                .into_iter()
                .map(|s| s.expect("grid fully covered"))
                .collect(),
            cache_stats: None,
        })
        .collect()
}

/// Drop-guard that emits an engine run's lifetime gauges —
/// `stream.peak_in_flight` plus the attached cache's
/// `cache.lifetime_hits` / `cache.lifetime_misses` — when the run ends
/// *however* it ends. A panicking generator unwinds through the engine;
/// without the guard those emissions would sit after the unwind point
/// and be lost.
struct RunGaugeGuard {
    tele: Telemetry,
    peak_in_flight: Arc<AtomicUsize>,
    cache: Option<Arc<AnswerCache>>,
}

impl Drop for RunGaugeGuard {
    fn drop(&mut self) {
        if !self.tele.enabled() {
            return;
        }
        self.tele.gauge(
            "stream.peak_in_flight",
            self.peak_in_flight.load(Ordering::Relaxed) as f64,
        );
        if let Some(cache) = &self.cache {
            let stats = cache.stats();
            self.tele
                .gauge("cache.lifetime_hits", stats.lifetime_hits as f64);
            self.tele
                .gauge("cache.lifetime_misses", stats.lifetime_misses as f64);
        }
    }
}

/// The spec-stream source: shards of a [`ShardStream`] keyed by their
/// stable index (model 0), optionally only the `select`ed indices. Emits
/// the generator-side `stream.peak_resident` gauge on drop, so the
/// memory high-water mark survives error/early-return paths (the happy
/// path additionally records it on [`StreamStats`]).
struct SpecShards {
    stream: ShardStream,
    select: Option<BTreeSet<usize>>,
    tele: Telemetry,
}

impl Iterator for SpecShards {
    type Item = SourceShard<'static>;

    fn next(&mut self) -> Option<Self::Item> {
        let shard_len = self.stream.shard_len();
        loop {
            if let Some(select) = &self.select {
                // indices are stable: nothing selected lies past the last
                if select
                    .last()
                    .is_none_or(|&last| self.stream.shards_emitted() > last)
                {
                    return None;
                }
            }
            let (idx, shard) = self.stream.next_indexed()?;
            if self.select.as_ref().is_some_and(|s| !s.contains(&idx)) {
                continue;
            }
            let q_start = idx * shard_len;
            let key = ShardKey {
                model_idx: 0,
                q_start,
                q_end: q_start + shard.len(),
            };
            return Some((key, Cow::Owned(shard)));
        }
    }
}

impl Drop for SpecShards {
    fn drop(&mut self) {
        if self.tele.enabled() {
            self.tele
                .gauge("stream.peak_resident", self.stream.peak_resident() as f64);
        }
    }
}

/// Observability of one engine run: how much was pulled from the source
/// and the high-water marks that certify the memory bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Shards pulled from the source (and evaluated).
    pub shards: usize,
    /// Questions pulled from the source (and evaluated).
    pub questions: usize,
    /// Peak questions in flight inside the executor: queued in the
    /// bounded channel plus held by workers. Bounded by
    /// `(2·workers + 1) × shard_len`.
    pub peak_in_flight: usize,
    /// The generator-side high-water mark
    /// ([`ShardStream::peak_resident`]), recorded by
    /// [`evaluate_spec_stream`](ParallelExecutor::evaluate_spec_stream).
    pub generator_peak_resident: Option<usize>,
    /// Shards containing at least one
    /// [`EvalError::WorkerPanic`] outcome — the ones
    /// [`requeue_quarantined_stream`](ParallelExecutor::requeue_quarantined_stream)
    /// would heal. Zero on unsupervised runs without genuine panics.
    #[serde(default)]
    pub quarantined_shards: usize,
}

/// Counts one final verdict, bucketed by answer type:
/// `judge.verdict.{multiple-choice|short-answer}.{pass|fail}`.
fn note_verdict(tele: &Telemetry, q: &Question, passed: bool) {
    if !tele.enabled() {
        return;
    }
    let name = match (q.is_multiple_choice(), passed) {
        (true, true) => "judge.verdict.multiple-choice.pass",
        (true, false) => "judge.verdict.multiple-choice.fail",
        (false, true) => "judge.verdict.short-answer.pass",
        (false, false) => "judge.verdict.short-answer.fail",
    };
    tele.counter(name, 1);
}

fn failed_outcome(q: &Question, error: EvalError) -> QuestionOutcome {
    QuestionOutcome {
        id: q.id.clone(),
        category: q.category,
        passed: false,
        response: String::new(),
        path: AnswerPath::Failed,
        error: Some(error),
    }
}

/// Cache-interposed inference, keyed to a spec fingerprint so answers
/// for spec-generated collections never cross specs (0 = canonical).
pub(crate) fn infer_cached_for(
    pipe: &VlmPipeline,
    q: &Question,
    downsample: usize,
    attempt: u64,
    cache: Option<&AnswerCache>,
    tele: &Telemetry,
    dataset_fp: u64,
) -> CachedAnswer {
    let Some(cache) = cache else {
        let _span = tele.span("inference");
        return CachedAnswer::from(&pipe.infer(q, downsample, attempt));
    };
    let key = CacheKey::for_dataset(pipe.fingerprint(), dataset_fp, q, downsample, attempt);
    if let Some(hit) = cache.lookup(&key) {
        tele.counter("cache.hit", 1);
        return hit;
    }
    tele.counter("cache.miss", 1);
    let answer = {
        let _span = tele.span("inference");
        CachedAnswer::from(&pipe.infer(q, downsample, attempt))
    };
    cache.insert(key, answer.clone());
    tele.counter("cache.insert", 1);
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::evaluate_with_judge;
    use crate::noisy::NoisyJudge;
    use chipvqa_models::ModelZoo;

    #[test]
    fn parallel_matches_sequential_exactly() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let seq = crate::harness::evaluate(&pipe, &bench, EvalOptions::default());
        for workers in [1, 3, 8] {
            let par =
                ParallelExecutor::new(workers).evaluate(&pipe, &bench, EvalOptions::default());
            assert_eq!(seq, par, "workers = {workers}");
        }
    }

    #[test]
    fn cache_is_semantically_transparent() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::llava_13b());
        let cache = Arc::new(AnswerCache::new());
        let exec = ParallelExecutor::new(4).with_cache(Arc::clone(&cache));

        let cold = exec.evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(cache.hits(), 0, "cold run cannot hit");
        assert_eq!(cache.len(), bench.len());

        let warm = exec.evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(cold, warm, "warm report identical");
        assert_eq!(cache.hits() as usize, bench.len(), "warm run all hits");

        let seq = crate::harness::evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(seq, warm, "cache never changes results");
    }

    #[test]
    fn default_retry_is_single_shot() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::fuyu_8b());
        let judge = NoisyJudge::new(RuleJudge::new(), 0.05, 9);
        let seq = evaluate_with_judge(&pipe, &bench, EvalOptions::default(), &judge);
        let par = ParallelExecutor::new(4).evaluate_with_judge(
            &pipe,
            &bench,
            EvalOptions::default(),
            &judge,
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn majority_vote_tames_a_flaky_judge() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let clean = crate::harness::evaluate(&pipe, &bench, EvalOptions::default());
        let flaky = NoisyJudge::new(RuleJudge::new(), 0.10, 3);

        let single = ParallelExecutor::new(4).evaluate_with_judge(
            &pipe,
            &bench,
            EvalOptions::default(),
            &flaky,
        );
        let voted = ParallelExecutor::new(4)
            .with_retry(RetryPolicy::with_attempts(5))
            .evaluate_with_judge(&pipe, &bench, EvalOptions::default(), &flaky);

        let disagree = |a: &EvalReport, b: &EvalReport| {
            a.outcomes
                .iter()
                .zip(&b.outcomes)
                .filter(|(x, y)| x.passed != y.passed)
                .count()
        };
        let err_single = disagree(&clean, &single);
        let err_voted = disagree(&clean, &voted);
        assert!(
            err_voted < err_single,
            "majority vote must reduce flips: {err_voted} vs {err_single}"
        );
    }

    #[test]
    fn grid_reports_match_per_model_runs() {
        let bench = ChipVqa::standard();
        let pipes: Vec<VlmPipeline> = [
            ModelZoo::gpt4o(),
            ModelZoo::llava_7b(),
            ModelZoo::kosmos_2(),
        ]
        .into_iter()
        .map(VlmPipeline::new)
        .collect();
        let exec = ParallelExecutor::new(6);
        let grid = exec.evaluate_grid(&pipes, &bench, EvalOptions::default(), &RuleJudge::new());
        assert_eq!(grid.len(), pipes.len());
        for (pipe, report) in pipes.iter().zip(&grid) {
            let solo = crate::harness::evaluate(pipe, &bench, EvalOptions::default());
            assert_eq!(&solo, report);
        }
    }

    #[test]
    fn shard_plan_covers_grid_exactly_once() {
        let shards = shard_keys(3, 142);
        let mut seen = vec![vec![0u8; 142]; 3];
        for s in &shards {
            #[allow(clippy::needless_range_loop)]
            for qi in s.q_start..s.q_end {
                seen[s.model_idx][qi] += 1;
            }
        }
        assert!(seen.iter().flatten().all(|&n| n == 1));
    }

    #[test]
    fn supervised_zero_plan_is_byte_identical() {
        use crate::fault::FaultPlan;
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::llava_llama3());
        let plain = ParallelExecutor::new(4).evaluate(&pipe, &bench, EvalOptions::default());
        let supervised = ParallelExecutor::new(4)
            .with_supervisor(Supervisor::new(FaultPlan::none()))
            .evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(plain, supervised);
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&supervised).expect("serializes"),
            "byte-identical, not just structurally equal"
        );
        assert!(!supervised.is_degraded());
        assert_eq!(supervised.answered(), bench.len());
    }

    #[test]
    fn chaos_run_is_worker_count_invariant_and_accounted() {
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        install_quiet_panic_hook();
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::phi3_vision());
        let sup = || Supervisor::new(FaultPlan::uniform(902, 0.03));
        let reference = ParallelExecutor::new(1).with_supervisor(sup()).evaluate(
            &pipe,
            &bench,
            EvalOptions::default(),
        );
        assert!(reference.is_degraded(), "3% x 6 kinds must hit something");
        assert_eq!(
            reference.answered() + reference.failed() + reference.breaker_skipped(),
            bench.len(),
            "accounting covers every question"
        );
        for workers in [2usize, 8] {
            let par = ParallelExecutor::new(workers)
                .with_supervisor(sup())
                .evaluate(&pipe, &bench, EvalOptions::default());
            assert_eq!(reference, par, "workers = {workers}");
        }
    }

    #[test]
    fn broken_model_is_shed_without_contaminating_the_grid() {
        use crate::fault::FaultPlan;
        let bench = ChipVqa::standard();
        let pipes: Vec<VlmPipeline> = [ModelZoo::gpt4o(), ModelZoo::fuyu_8b()]
            .into_iter()
            .map(VlmPipeline::new)
            .collect();
        let broken = pipes[1].fingerprint();
        let exec = ParallelExecutor::new(4)
            .with_supervisor(Supervisor::new(FaultPlan::none().with_broken_model(broken)));
        let grid = exec.evaluate_grid(&pipes, &bench, EvalOptions::default(), &RuleJudge::new());

        // the healthy model is untouched — byte-identical to a clean run
        let clean = crate::harness::evaluate(&pipes[0], &bench, EvalOptions::default());
        assert_eq!(grid[0], clean);

        // the broken model is mostly shed by its breaker, explicitly
        let report = &grid[1];
        assert!(report.breaker_skipped() > bench.len() / 2);
        assert_eq!(report.answered(), 0, "a dead backend answers nothing");
        assert_eq!(
            report.answered() + report.failed() + report.breaker_skipped(),
            bench.len()
        );
        assert_eq!(report.overall(), 0.0);
        let breakdown = report.failure_breakdown();
        assert!(breakdown.contains_key("transient"));
        assert!(breakdown.contains_key("breaker-open"));
    }

    #[test]
    fn injected_panics_are_quarantined_not_fatal() {
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        use crate::supervisor::EvalError;
        install_quiet_panic_hook();
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::paligemma());
        let exec = ParallelExecutor::new(4).with_supervisor(Supervisor::new(FaultPlan {
            panic_rate: 0.10,
            ..FaultPlan::none()
        }));
        // must complete despite ~14 worker crashes
        let report = exec.evaluate(&pipe, &bench, EvalOptions::default());
        let panics = report
            .outcomes
            .iter()
            .filter(|o| o.error == Some(EvalError::WorkerPanic))
            .count();
        assert!(panics > 0, "panics were injected");
        assert_eq!(report.outcomes.len(), bench.len(), "no question lost");
        assert_eq!(report.failed(), panics);
    }

    #[test]
    fn enabled_telemetry_never_changes_reports() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let plain = ParallelExecutor::new(4).evaluate(&pipe, &bench, EvalOptions::default());
        let tele = Telemetry::recording();
        let traced = ParallelExecutor::new(4)
            .with_telemetry(tele.clone())
            .evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(plain, traced);
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&traced).expect("serializes"),
            "telemetry must be invisible in the serialized report"
        );
        let snap = tele.snapshot();
        assert_eq!(snap.spans["executor.run"].count, 1);
        let shards = bench.len().div_ceil(SHARD_SIZE) as u64;
        assert_eq!(snap.counters["stream.shard_generated"], shards);
        assert_eq!(
            snap.counters["stream.shard_evaluated"], shards,
            "every shard pulled from the source was evaluated exactly once"
        );
        assert_eq!(snap.spans["stream.shard"].count, shards);
        let verdicts: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("judge.verdict."))
            .map(|(_, n)| n)
            .sum();
        assert_eq!(verdicts as usize, bench.len(), "one verdict per question");
        assert_eq!(
            snap.histograms["executor.question_ns"].count as usize,
            bench.len()
        );
    }

    #[test]
    fn cache_traffic_shows_up_in_counters_and_report_stats() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::neva_22b());
        let cache = Arc::new(AnswerCache::new());
        let tele = Telemetry::recording();
        let exec = ParallelExecutor::new(2)
            .with_cache(Arc::clone(&cache))
            .with_telemetry(tele.clone());
        let cold = exec.evaluate(&pipe, &bench, EvalOptions::default());
        let warm = exec.evaluate(&pipe, &bench, EvalOptions::default());
        let snap = tele.snapshot();
        assert_eq!(snap.counters["cache.miss"] as usize, bench.len());
        assert_eq!(snap.counters["cache.insert"] as usize, bench.len());
        assert_eq!(snap.counters["cache.hit"] as usize, bench.len());
        // spans are hierarchical: inference nests under the worker's
        // shard/question spans
        assert_eq!(
            snap.spans["stream.shard/executor.question/inference"].count as usize,
            bench.len()
        );

        // the report carries the cache's cumulative stats at merge time
        let cold_stats = cold.cache_stats.expect("cache attached");
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.misses as usize, bench.len());
        let warm_stats = warm.cache_stats.expect("cache attached");
        assert_eq!(warm_stats.hits as usize, bench.len());
        assert_eq!(warm_stats, cache.stats());
    }

    #[test]
    fn streamed_standard_bench_matches_batch_evaluation() {
        let bench = ChipVqa::standard();
        let spec = DatasetSpec::scaled(1);
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let batch = crate::harness::evaluate(&pipe, &bench, EvalOptions::default());
        for workers in [1usize, 4] {
            let (streamed, stats) = ParallelExecutor::new(workers).evaluate_spec_stream(
                &pipe,
                &spec,
                SHARD_SIZE,
                EvalOptions::default(),
            );
            assert_eq!(batch, streamed, "workers = {workers}");
            assert_eq!(stats.questions, bench.len());
            assert_eq!(stats.shards, bench.len().div_ceil(SHARD_SIZE));
            assert!(stats.peak_in_flight <= (2 * workers + 1) * SHARD_SIZE);
        }
    }

    #[test]
    fn spec_stream_keys_cache_on_spec_fingerprint() {
        use chipvqa_core::spec::DatasetSpec;
        let pipe = VlmPipeline::new(ModelZoo::llava_7b());
        let cache = Arc::new(AnswerCache::new());
        let exec = ParallelExecutor::new(2).with_cache(Arc::clone(&cache));
        let spec = DatasetSpec::default();
        let (_, _) = exec.evaluate_spec_stream(&pipe, &spec, 16, EvalOptions::default());
        let snapshot = cache.snapshot();
        assert!(!snapshot.entries.is_empty());
        assert!(
            snapshot
                .entries
                .iter()
                .all(|(k, _)| k.dataset_fingerprint == spec.fingerprint()),
            "streamed entries are bound to the spec"
        );
        // the canonical batch path uses fingerprint 0, so the same
        // questions miss rather than crossing specs
        let before = cache.len();
        exec.evaluate(&pipe, &ChipVqa::standard(), EvalOptions::default());
        assert_eq!(cache.len(), 2 * before, "no cross-spec hits");
    }

    #[test]
    fn supervised_streaming_matches_supervised_batch() {
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        install_quiet_panic_hook();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let spec = DatasetSpec::scaled(1);
        let bench = spec.build();
        let sup = || Supervisor::new(FaultPlan::uniform(902, 0.03));
        let batch = ParallelExecutor::new(2).with_supervisor(sup()).evaluate(
            &pipe,
            &bench,
            EvalOptions::default(),
        );
        assert!(batch.is_degraded(), "the plan must hit something");
        for workers in [1usize, 4] {
            let supervised = ParallelExecutor::new(workers).with_supervisor(sup());
            let (streamed, stats) =
                supervised.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
            assert_eq!(
                serde_json::to_string(&batch).expect("serializes"),
                serde_json::to_string(&streamed).expect("serializes"),
                "workers = {workers}"
            );
            assert_eq!(stats.questions, spec.total());
        }
    }

    #[test]
    fn supervised_stream_zero_plan_matches_unsupervised_stream() {
        use crate::fault::FaultPlan;
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let spec = DatasetSpec::scaled(1);
        let calm = ParallelExecutor::new(2);
        let (plain, _) =
            calm.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        let supervised = calm
            .clone()
            .with_supervisor(Supervisor::new(FaultPlan::none()));
        let (zero, stats) =
            supervised.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&zero).expect("serializes"),
            "zero-plan supervised streaming is byte-identical to unsupervised"
        );
        assert_eq!(stats.quarantined_shards, 0);
        // detaching the supervisor (the fleet healing path) still works
        let detached = supervised.unsupervised();
        assert!(detached.supervisor().is_none());
        let (report, _) =
            detached.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        assert_eq!(report.outcomes.len(), spec.total());
    }

    #[test]
    fn streamed_quarantine_heals_by_requeue() {
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        install_quiet_panic_hook();
        let pipe = VlmPipeline::new(ModelZoo::paligemma());
        let spec = DatasetSpec::scaled(1);
        let clean = ParallelExecutor::new(4).evaluate(&pipe, &spec.build(), EvalOptions::default());
        let exec = ParallelExecutor::new(4).with_supervisor(Supervisor::new(FaultPlan {
            panic_rate: 0.08,
            ..FaultPlan::none()
        }));
        let (mut report, stats) =
            exec.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        assert!(stats.quarantined_shards > 0, "panics were injected");
        let healed = exec.requeue_quarantined_stream(
            &pipe,
            &spec,
            SHARD_SIZE,
            EvalOptions::default(),
            &mut report,
        );
        assert_eq!(healed, stats.quarantined_shards);
        report.cache_stats = None;
        assert_eq!(
            serde_json::to_string(&clean).expect("serializes"),
            serde_json::to_string(&report).expect("serializes"),
            "healed streamed report converges to the clean bytes"
        );
        // a clean report heals nothing
        let mut untouched = report.clone();
        assert_eq!(
            exec.requeue_quarantined_stream(
                &pipe,
                &spec,
                SHARD_SIZE,
                EvalOptions::default(),
                &mut untouched
            ),
            0
        );
    }

    #[test]
    fn stream_gauges_survive_a_generator_panic() {
        use crate::fault::install_quiet_panic_hook;
        install_quiet_panic_hook();
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let cache = Arc::new(AnswerCache::new());
        let tele = Telemetry::recording();
        let exec = ParallelExecutor::new(2)
            .with_cache(Arc::clone(&cache))
            .with_telemetry(tele.clone());
        let questions = bench.questions();
        let shards = (0..4).map(|i| {
            if i == 2 {
                panic!("generator exploded mid-stream");
            }
            let key = ShardKey {
                model_idx: 0,
                q_start: i * SHARD_SIZE,
                q_end: (i + 1) * SHARD_SIZE,
            };
            (key, Cow::Borrowed(&questions[key.q_start..key.q_end]))
        });
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let pipes = std::slice::from_ref(&pipe);
            exec.run(
                pipes,
                shards,
                true,
                EvalOptions::default(),
                &RuleJudge::new(),
                0,
            )
        }));
        assert!(caught.is_err(), "the generator panic propagates");
        // the drop-guard emitted the lifetime gauges despite the unwind
        let snap = tele.snapshot();
        assert!(
            snap.gauges["stream.peak_in_flight"] >= SHARD_SIZE as f64,
            "peak gauge emitted on the unwind path"
        );
        let stats = cache.stats();
        assert_eq!(
            snap.gauges["cache.lifetime_misses"],
            stats.lifetime_misses as f64
        );
        assert_eq!(
            snap.gauges["cache.lifetime_hits"],
            stats.lifetime_hits as f64
        );
    }

    #[test]
    fn tie_votes_fall_to_first_attempt() {
        struct AlternatingJudge;
        impl Judge for AlternatingJudge {
            fn is_correct(&self, _q: &Question, _r: &str) -> bool {
                true
            }
            fn verdict(&self, _q: &Question, _r: &str, attempt: u64) -> bool {
                attempt.is_multiple_of(2)
            }
        }
        let bench = ChipVqa::standard();
        let q = &bench.questions()[0];
        // attempts = 2: one yes (attempt 0), one no -> tie -> first = yes
        let policy = RetryPolicy::with_attempts(2);
        assert!(policy.judged(&AlternatingJudge, q, "x"));
        // attempts = 4: 2 yes, 2 no -> tie -> still the first attempt
        let policy = RetryPolicy::with_attempts(4);
        assert!(policy.judged(&AlternatingJudge, q, "x"));
    }
}
