//! The `serve_open` workload: open-loop session arrivals into an
//! in-process resident service.
//!
//! One submitter thread sends each session when it is due on a seeded
//! schedule, whether or not earlier sessions have finished; one
//! waiter thread collects terminal states. A session's latency runs from
//! the moment it was due, so a late submitter or a stalled service
//! charges every session behind it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::layers::PROBE_STRIDE;
use crate::program::{
    fnv1a, memo_counts, memory_cache_lookup_ns, zoo_len, Grid, Request, Service, SHED_LABELS,
};
use crate::{unix_ns, Args, Out};

/// External downsample factors sessions draw from: with 12 models and
/// the two session runners (which key the shared cache apart) this is
/// 72 distinct answer sets, so the shared answer cache hits only part of
/// the time. (The pool varies the factor, not the spec seed: the batch
/// session runner keys the shared cache without the spec fingerprint,
/// so sessions over two specs would read each other's answers.)
const DOWNSAMPLES: [usize; 3] = [1, 2, 4];
/// Tenants sessions are drawn from.
const TENANTS: u64 = 4;
/// One session in `STREAM_EVERY` runs on the streaming session runner.
const STREAM_EVERY: usize = 4;
/// Shard length of streamed sessions.
const STREAM_SHARD_LEN: usize = 16;
/// One streamed session in `FAULT_EVERY` carries a fault plan.
const FAULT_EVERY: usize = 4;
/// Fault rate of those plans.
const FAULT_RATE: f64 = 0.02;
/// Run-queue and per-tenant in-flight bound: large enough that no phase
/// sheds, so a saturating phase queues its whole backlog.
const QUEUE: usize = 4096;
/// A session still live this long after the waiter reaches it is lost.
const WAIT: Duration = Duration::from_secs(30);

/// SplitMix64: the benchmark's own seeded stream, so request draws do
/// not depend on any program crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One drawn session: the line of its reference hash, and when it is due.
struct Draw {
    request: Request,
    reference: usize,
    due: Duration,
}

/// A distinct request, up to tenant and session runner (which do not
/// change a session's report): a model, a downsample factor, and whether
/// a fault plan supervises it. Every session of a run shares the spec
/// the workload seed selects.
#[derive(Clone, Copy)]
struct Kind {
    model: usize,
    down_k: usize,
    fault: bool,
}

impl Kind {
    fn all() -> impl Iterator<Item = Kind> {
        (0..zoo_len()).flat_map(|model| {
            (0..DOWNSAMPLES.len()).flat_map(move |down_k| {
                [false, true].map(|fault| Kind {
                    model,
                    down_k,
                    fault,
                })
            })
        })
    }

    /// Position in [`Kind::all`]: the line of its reference hash.
    fn slot(self) -> usize {
        (self.model * DOWNSAMPLES.len() + self.down_k) * 2 + usize::from(self.fault)
    }

    fn request(self, args: &Args, tenant: u64, stream: bool) -> Request {
        let spec_seed = args.spec_seed();
        Request::new(
            &format!("tenant-{tenant}"),
            self.model,
            spec_seed,
            DOWNSAMPLES[self.down_k],
            stream.then_some(STREAM_SHARD_LEN),
            self.fault.then_some((spec_seed ^ 0x0fa1_7000, FAULT_RATE)),
        )
    }
}

/// The seeded session sequence. Each block of `zoo × DOWNSAMPLES`
/// sessions asks every (model, downsample) pair exactly once, in a seeded
/// order, so seeds differ in order, not in mix. Every `STREAM_EVERY`-th
/// session is streamed and every `FAULT_EVERY`-th streamed session carries
/// a fault plan; fault plans ride only on streamed sessions because the
/// batch session runner does not attach the plan's supervisor (a
/// supervised batch session would come back unsupervised). Arrival gaps
/// are uniform in [0.5, 1.5] / rate: a jittered steady stream rather than
/// Poisson bursts, so a few hundred sessions give a p95 that does not
/// hinge on where the seed puts a burst. The rate only stretches the
/// arrival times.
fn draws(args: &Args, rate: f64, sessions: usize) -> Vec<Draw> {
    let mut mix = Mix(args.get::<u64>("seed") ^ 0x5e55_10f5);
    let block = zoo_len() * DOWNSAMPLES.len();
    let mut order: Vec<usize> = Vec::new();
    let mut at = 0.0f64;
    (0..sessions)
        .map(|i| {
            if i % block == 0 {
                order = (0..block).collect();
                for j in (1..block).rev() {
                    order.swap(j, mix.below(j as u64 + 1) as usize);
                }
            }
            at += (0.5 + mix.unit()) / rate;
            let pair = order[i % block];
            let stream = i % STREAM_EVERY == 0;
            let kind = Kind {
                model: pair / DOWNSAMPLES.len(),
                down_k: pair % DOWNSAMPLES.len(),
                fault: stream && (i / STREAM_EVERY).is_multiple_of(FAULT_EVERY),
            };
            Draw {
                request: kind.request(args, mix.below(TENANTS), stream),
                reference: kind.slot(),
                due: Duration::from_secs_f64(at),
            }
        })
        .collect()
}

/// `perfbench serve-refs`: the canonical report hash of every request in
/// the pool, computed outside the service, one per line in slot order.
pub fn refs(args: &Args, out: &mut Out) -> Result<(), String> {
    let workers: usize = args.get("workers");
    let jobs: Vec<Request> = Kind::all().map(|k| k.request(args, 0, false)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut hashes = vec![0u64; jobs.len()];
    let done: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        mine.push((i, fnv1a(job.reference().as_bytes())));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference worker"))
            .collect()
    });
    for (i, h) in done.into_iter().flatten() {
        hashes[i] = h;
    }
    let body: Vec<String> = hashes.iter().map(|h| format!("{h:016x}")).collect();
    std::fs::write(args.get::<String>("out"), body.join("\n")).map_err(|e| e.to_string())?;
    out.num("references", hashes.len() as f64);
    Ok(())
}

/// What the submitter saw for one session.
struct Sent {
    lateness_ns: u64,
    submit_ns: u64,
    queue_depth: usize,
    shed: Option<&'static str>,
}

/// What the waiter saw for one accepted session.
struct Done {
    index: usize,
    state: Option<&'static str>,
    latency_ns: u64,
    queue_wait_ns: u64,
    run_ns: u64,
    report_hash: Option<u64>,
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// `perfbench serve`: one open-loop phase of `--sessions` sessions at
/// `--rate` per second against a fresh service.
pub fn serve(args: &Args, out: &mut Out) -> Result<(), String> {
    let rate: f64 = args.get("rate");
    let sessions: usize = args.get("sessions");
    let runners: usize = args.get("runners");
    let workers: usize = args.get("workers");
    let refs: Vec<u64> = std::fs::read_to_string(args.get::<String>("refs"))
        .map_err(|e| e.to_string())?
        .lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let draws = draws(args, rate, sessions);

    let service = Service::start(runners, workers, QUEUE);
    out.num("ready_unix_ns", unix_ns() as f64);
    let memo0 = memo_counts();
    let start = Instant::now();
    let (sent, done) = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, u64, u64)>();
        let service = &service;
        let draws = &draws;
        let submitter = s.spawn(move || {
            draws
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let due = start + d.due;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let t = Instant::now();
                    let lateness_ns = t.saturating_duration_since(due).as_nanos() as u64;
                    let result = service.submit(&d.request);
                    let submit_ns = t.elapsed().as_nanos() as u64;
                    let queue_depth = service.queue_depth();
                    if let Ok(id) = result {
                        tx.send((i, id, lateness_ns)).expect("waiter is alive");
                    }
                    Sent {
                        lateness_ns,
                        submit_ns,
                        queue_depth,
                        shed: result.err(),
                    }
                })
                .collect::<Vec<Sent>>()
        });
        let waiter = s.spawn(move || {
            rx.into_iter()
                .map(|(index, id, lateness_ns)| match service.finish(id, WAIT) {
                    Some(f) => Done {
                        index,
                        state: Some(f.state),
                        latency_ns: lateness_ns + f.total_ns,
                        queue_wait_ns: f.queue_wait_ns,
                        run_ns: f.total_ns.saturating_sub(f.queue_wait_ns),
                        report_hash: f.report.map(|r| fnv1a(r.as_bytes())),
                    },
                    None => Done {
                        index,
                        state: None,
                        latency_ns: 0,
                        queue_wait_ns: 0,
                        run_ns: 0,
                        report_hash: None,
                    },
                })
                .collect::<Vec<Done>>()
        });
        (
            submitter.join().expect("submitter"),
            waiter.join().expect("waiter"),
        )
    });
    let phase_s = start.elapsed().as_secs_f64();
    let memo1 = memo_counts();
    let cache = service.cache_counts();
    service.shutdown();

    // accounting: every offered session is completed, cancelled, failed,
    // shed or given up on (lost); a completed one with other bytes than
    // its reference is wrong
    let count_state = |label: &str| done.iter().filter(|d| d.state == Some(label)).count();
    let completed = count_state("done");
    let lost = done.iter().filter(|d| d.state.is_none()).count();
    let wrong = done
        .iter()
        .filter(|d| d.state == Some("done"))
        .filter(|d| d.report_hash != refs.get(draws[d.index].reference).copied())
        .count();
    let shed_total = sent.iter().filter(|s| s.shed.is_some()).count();
    let closed = completed + count_state("cancelled") + count_state("failed") + lost + shed_total;
    out.num("offered", sessions as f64)
        .num("unaccounted", sessions.abs_diff(closed) as f64)
        .num("completed", completed as f64)
        .num("cancelled", count_state("cancelled") as f64)
        .num("failed", count_state("failed") as f64)
        .num("lost", lost as f64)
        .num("wrong", wrong as f64)
        .num("shed", shed_total as f64);
    for label in SHED_LABELS {
        let n = sent.iter().filter(|s| s.shed == Some(label)).count();
        out.num(&format!("serve.shed.{label}"), n as f64);
    }

    let ok: Vec<&Done> = done.iter().filter(|d| d.state == Some("done")).collect();
    let latency = sorted(ok.iter().map(|d| d.latency_ns as f64 / 1e6).collect());
    let p95 = percentile(&latency, 95.0);
    let lateness = sorted(sent.iter().map(|s| s.lateness_ns as f64 / 1e6).collect());
    // a growing backlog: the run queue is deeper over the last third of
    // submissions than over the first
    let depths: Vec<f64> = sent.iter().map(|s| s.queue_depth as f64).collect();
    let third = (depths.len() / 3).max(1);
    let growing = mean(&depths[depths.len() - third..]) > mean(&depths[..third]) + 2.0;
    let evaluations: usize = ok.iter().map(|d| draws[d.index].request.questions()).sum();
    out.num("phase_s", phase_s)
        .num("evaluations", evaluations as f64)
        .num("session_p50_ms", percentile(&latency, 50.0))
        .num("session_p95_ms", p95)
        .num(
            "samples_above_p95",
            latency.iter().filter(|&&l| l > p95).count() as f64,
        )
        .flag("backlog_growing", growing)
        .num("load.lateness_p99_ms", percentile(&lateness, 99.0));

    let submit_us = mean(
        &sent
            .iter()
            .map(|s| s.submit_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let queue_ms = sorted(ok.iter().map(|d| d.queue_wait_ns as f64 / 1e6).collect());
    let run_ms = sorted(ok.iter().map(|d| d.run_ns as f64 / 1e6).collect());
    out.num("serve.submit_us", submit_us)
        .num("serve.queue_wait_ms", percentile(&queue_ms, 50.0))
        .num("serve.run_ms", percentile(&run_ms, 50.0))
        .num(
            "serve.cache_hit_ratio",
            cache.hits as f64 / cache.lookups.max(1) as f64,
        );

    if args.traced() {
        // the service takes no recorder: per-layer time is calls made
        // × the single-call cost a probe measures off the same pool
        let probe_grid = Grid::new(1, args.spec_seed());
        let (gen_q, gen_ns) = probe_grid.generation_probe();
        let probe = probe_grid.layer_probe(PROBE_STRIDE);
        let lookup_ns = memory_cache_lookup_ns(2_000);
        let per_call = |ns: u64| ns as f64 / probe.calls.max(1) as f64;
        let questions = evaluations;
        let gen_busy_ns = questions as f64 * gen_ns as f64 / gen_q.max(1) as f64;
        let inferences = cache.lookups - cache.hits;
        let perceive_ns = inferences as f64 * per_call(probe.perceive_ns);
        let backbone_ns = inferences as f64 * per_call(probe.backbone_ns);
        let judge_ns = questions as f64 * per_call(probe.judge_ns);
        let lookups_ns = cache.lookups as f64 * lookup_ns;
        let run_thread_ns = ok.iter().map(|d| d.run_ns as f64).sum::<f64>() * workers as f64;
        let memo_total = (memo1.0 - memo0.0 + memo1.1 - memo0.1).max(1);
        out.num("core.gen.questions", questions as f64)
            .num("core.gen.busy_s", gen_busy_ns / 1e9)
            .num(
                "core.gen.us_per_question",
                gen_ns as f64 / 1e3 / gen_q.max(1) as f64,
            )
            .num(
                "core.gen.memo_hit_ratio",
                (memo1.0 - memo0.0) as f64 / memo_total as f64,
            )
            .num("models.perceive.calls", inferences as f64)
            .num("models.perceive.busy_s", perceive_ns / 1e9)
            .num(
                "models.perceive.us_per_call",
                per_call(probe.perceive_ns) / 1e3,
            )
            .num("models.perceive.distinct_ratio", probe.distinct_ratio)
            .num("models.backbone.busy_s", backbone_ns / 1e9)
            .num("eval.judge.calls", questions as f64)
            .num("eval.judge.busy_s", judge_ns / 1e9)
            .num("eval.cache.lookups", cache.lookups as f64)
            .num(
                "eval.cache.hit_ratio",
                cache.hits as f64 / cache.lookups.max(1) as f64,
            )
            .num("eval.cache.lookup_us", lookup_ns / 1e3)
            .num(
                "trace.layer_coverage",
                (gen_busy_ns + perceive_ns + backbone_ns + judge_ns + lookups_ns)
                    / run_thread_ns.max(1.0),
            );
    }
    Ok(())
}
