//! Per-layer metrics of a traced pass: the program's own spans and
//! counters (read from the attached recorder) plus outside probes that
//! time single public calls off the workload's own inputs.

use crate::program::{Grid, Trace, TraceSummary};
use crate::Out;

/// Every `PROBE_STRIDE`-th question is timed layer by layer.
pub const PROBE_STRIDE: usize = 10;

/// What the recorder and the memo counters saw over one pass.
pub struct PassTrace {
    sum: TraceSummary,
    workers: usize,
    memo_hits: u64,
    memo_misses: u64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

impl PassTrace {
    /// Reads the recorder; `memo0`/`memo1` are the memo counters before
    /// and after the pass.
    pub fn new(trace: &Trace, workers: usize, memo0: (u64, u64), memo1: (u64, u64)) -> Self {
        PassTrace {
            sum: trace.summary(),
            workers,
            memo_hits: memo1.0 - memo0.0,
            memo_misses: memo1.1 - memo0.1,
        }
    }

    /// `core.gen.*`, `eval.executor.*`, `eval.judge.*` and
    /// `trace.layer_coverage`. `extra_named_ns` is layer time the spans
    /// do not hold (store lookups, timed by a probe).
    pub fn emit_generation_and_executor(&self, out: &mut Out, grid: &Grid, extra_named_ns: f64) {
        let s = &self.sum;
        let (_, stream_ns, producer_self_ns) = s.span("executor.stream");
        let (_, generate_ns, _) = s.span("stream.generate");
        let (_, inference_ns, _) = s.span("inference");
        let (judge_calls, judge_ns, _) = s.span("judge");
        let (_, shard_ns, _) = s.span("stream.shard");
        // the producer thread plus the workers, for the whole pass
        let thread_ns = (stream_ns * (self.workers as u64 + 1)).max(1) as f64;
        let named =
            (generate_ns + producer_self_ns + inference_ns + judge_ns) as f64 + extra_named_ns;
        let (probe_q, probe_ns) = grid.generation_probe();
        let memo_total = (self.memo_hits + self.memo_misses).max(1);
        out.num("core.gen.questions", s.counter("stream.questions") as f64)
            .num("core.gen.busy_s", secs(generate_ns))
            .num(
                "core.gen.us_per_question",
                probe_ns as f64 / 1e3 / probe_q.max(1) as f64,
            )
            .num(
                "core.gen.memo_hit_ratio",
                self.memo_hits as f64 / memo_total as f64,
            )
            .num("eval.judge.calls", judge_calls as f64)
            .num("eval.judge.busy_s", secs(judge_ns))
            .num("eval.executor.generate_s", secs(generate_ns))
            .num("eval.executor.inference_s", secs(inference_ns))
            .num("eval.executor.producer_wait_s", secs(producer_self_ns))
            .num(
                "eval.executor.steals",
                s.counter("executor.queue.steal") as f64,
            )
            .num(
                "eval.executor.peak_in_flight",
                s.gauge("stream.peak_in_flight"),
            )
            .num(
                "eval.executor.unattributed_frac",
                1.0 - (stream_ns + shard_ns) as f64 / thread_ns,
            )
            .num("trace.layer_coverage", named / thread_ns);
    }

    /// `models.*`: perception calls from the `inference` span count, its
    /// time split between perception and backbone by a single-threaded
    /// probe of the same calls.
    pub fn emit_models(&self, out: &mut Out, grid: &Grid) {
        let (calls, inference_ns, _) = self.sum.span("inference");
        let probe = grid.layer_probe(PROBE_STRIDE);
        let model_ns = (probe.perceive_ns + probe.backbone_ns).max(1) as f64;
        let perceive_share = probe.perceive_ns as f64 / model_ns;
        out.num("models.perceive.calls", calls as f64)
            .num(
                "models.perceive.busy_s",
                secs(inference_ns) * perceive_share,
            )
            .num(
                "models.perceive.us_per_call",
                probe.perceive_ns as f64 / 1e3 / probe.calls.max(1) as f64,
            )
            .num("models.perceive.distinct_ratio", probe.distinct_ratio)
            .num(
                "models.backbone.busy_s",
                secs(inference_ns) * (1.0 - perceive_share),
            );
    }
}
