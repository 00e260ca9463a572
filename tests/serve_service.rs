//! Integration suite for the resident evaluation service: cancel/resume
//! byte-identity across worker counts with a warm store, admission
//! shedding under saturation, per-tenant breaker protection, graceful
//! shutdown with no torn store tail, cross-session answer sharing, and
//! the progress event stream.

use std::sync::mpsc::Receiver;
use std::time::Duration;

use chipvqa::core::{ChipVqa, DatasetSpec};
use chipvqa::eval::harness::{evaluate, EvalOptions};
use chipvqa::eval::AnswerStore;
use chipvqa::models::{ModelZoo, VlmPipeline};
use chipvqa::serve::{
    AdmissionConfig, EvalService, ProgressEvent, ServiceConfig, SessionId, SessionReport,
    SessionRequest, SessionState, ShedReason,
};

const WAIT: Duration = Duration::from_secs(120);

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chipvqa-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The batch-mode reference: the same request through the plain
/// sequential harness, wrapped like a session report.
fn batch_reference(request: &SessionRequest) -> String {
    let bench = request.spec.build();
    SessionReport::new(
        request
            .models
            .iter()
            .map(|profile| evaluate(&VlmPipeline::new(profile.clone()), &bench, request.options))
            .collect(),
    )
    .canonical_json()
}

fn gpt4o_request(tenant: &str) -> SessionRequest {
    SessionRequest::single(tenant, ModelZoo::gpt4o())
}

/// Blocks until the session reports its first completed shard and
/// returns that event's `shards_done` (the event is consumed from `rx`).
fn await_first_shard(rx: &Receiver<ProgressEvent>, id: SessionId) -> usize {
    loop {
        match rx.recv_timeout(WAIT).expect("progress stream is live") {
            ProgressEvent::Shard {
                session,
                shards_done,
                ..
            } if session == id => return shards_done,
            _ => {}
        }
    }
}

/// Blocks until the session has left the admission queue.
fn await_admitted(service: &EvalService, id: SessionId) {
    let deadline = std::time::Instant::now() + WAIT;
    while service.snapshot(id).expect("session exists").state == SessionState::Queued {
        assert!(
            std::time::Instant::now() < deadline,
            "session never admitted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn cancel_resume_is_byte_identical_across_worker_counts_with_warm_store() {
    for workers in [1usize, 2, 8] {
        let dir = temp_dir(&format!("resume-w{workers}"));
        let mut service = EvalService::start(ServiceConfig {
            workers,
            runners: 1,
            shard_batch: 1,
            step_delay: Duration::from_millis(20),
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("store opens");
        let request = gpt4o_request("determinism");
        let reference = batch_reference(&request);

        // Uninterrupted run — also warms the shared store.
        let uninterrupted = service.submit(request.clone()).expect("queue empty");
        assert_eq!(
            service.wait(uninterrupted, WAIT).expect("terminates"),
            SessionState::Done
        );
        let baseline = service.report(uninterrupted).expect("done has report");
        assert_eq!(
            baseline.canonical_json(),
            reference,
            "service report must equal the batch harness byte for byte ({workers} workers)"
        );

        // Cancelled mid-run (store warm), then resumed.
        let rx = service.subscribe();
        let id = service.submit(request.clone()).expect("queue empty");
        await_first_shard(&rx, id);
        service.cancel(id).expect("running session cancels");
        assert_eq!(
            service.wait(id, WAIT).expect("terminates"),
            SessionState::Cancelled
        );
        let snap = service.snapshot(id).expect("session exists");
        assert!(
            snap.shards_done > 0 && snap.shards_done < snap.shards_total,
            "cancellation must land mid-run, got {}/{} shards",
            snap.shards_done,
            snap.shards_total
        );

        service.resume(id).expect("cancelled session resumes");
        assert_eq!(
            service.wait(id, WAIT).expect("terminates"),
            SessionState::Done
        );
        let resumed = service.report(id).expect("done has report");
        assert_eq!(
            resumed.canonical_json(),
            reference,
            "cancel+resume must be byte-identical to uninterrupted ({workers} workers)"
        );

        service.shutdown().expect("flushes");
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_preserves_partial_progress() {
    let mut service = EvalService::start(ServiceConfig {
        workers: 2,
        runners: 1,
        shard_batch: 1,
        step_delay: Duration::from_millis(20),
        ..ServiceConfig::default()
    })
    .expect("no store: cannot fail");
    let rx = service.subscribe();
    let id = service.submit(gpt4o_request("partial")).expect("accepted");
    let first = await_first_shard(&rx, id);
    service.cancel(id).expect("cancels");
    assert_eq!(
        service.wait(id, WAIT).expect("terminates"),
        SessionState::Cancelled
    );
    let done_at_cancel = service.snapshot(id).expect("exists").shards_done;
    assert!(done_at_cancel > 0);

    service.resume(id).expect("resumes");
    assert_eq!(
        service.wait(id, WAIT).expect("terminates"),
        SessionState::Done
    );
    // The resumed run executed only the remaining shards: progress
    // events for the resume continue the count instead of restarting.
    let mut dones: Vec<usize> = rx
        .try_iter()
        .filter_map(|e| match e {
            ProgressEvent::Shard {
                session,
                shards_done,
                ..
            } if session == id => Some(shards_done),
            _ => None,
        })
        .collect();
    dones.insert(0, first); // consumed by await_first_shard above
    let snap = service.snapshot(id).expect("exists");
    assert_eq!(snap.shards_done, snap.shards_total);
    assert_eq!(
        dones.iter().max().copied(),
        Some(snap.shards_total),
        "shard events cover the full plan exactly once: {dones:?}"
    );
    assert_eq!(
        dones.len(),
        snap.shards_total,
        "no shard re-executed on resume: {dones:?}"
    );
    service.shutdown().expect("clean stop");
}

#[test]
fn saturation_sheds_structured_and_loses_nothing() {
    let mut service = EvalService::start(ServiceConfig {
        workers: 2,
        runners: 1,
        shard_batch: 1,
        step_delay: Duration::from_millis(25),
        admission: AdmissionConfig {
            queue_capacity: 1,
            tenant_running_quota: 1,
            tenant_in_flight_limit: 1,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    })
    .expect("no store");

    // Fill the single run slot and the single queue slot.
    let running = service.submit(gpt4o_request("a")).expect("run slot");
    await_admitted(&service, running);
    let queued = service.submit(gpt4o_request("b")).expect("queue slot");

    // Same tenant again: shed by the per-tenant in-flight limit.
    let saturated = service.submit(gpt4o_request("a")).unwrap_err();
    assert!(
        matches!(
            &saturated,
            ShedReason::TenantSaturated {
                tenant,
                in_flight: 1,
                limit: 1
            } if tenant == "a"
        ),
        "got {saturated:?}"
    );

    // Fresh tenant: shed by queue capacity.
    let full = service.submit(gpt4o_request("c")).unwrap_err();
    assert!(
        matches!(
            &full,
            ShedReason::QueueFull {
                depth: 1,
                capacity: 1
            }
        ),
        "got {full:?}"
    );

    // Every shed is structured: round-trips through JSON.
    for shed in [&saturated, &full] {
        let json = serde_json::to_string(shed).expect("serializes");
        let back: ShedReason = serde_json::from_str(&json).expect("parses");
        assert_eq!(&back, shed);
        assert!(!shed.to_string().is_empty());
    }

    // Nothing accepted is ever lost: both sessions terminate.
    assert_eq!(
        service.wait(running, WAIT).expect("terminates"),
        SessionState::Done
    );
    assert_eq!(
        service.wait(queued, WAIT).expect("terminates"),
        SessionState::Done
    );
    let stats = service.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed + stats.cancelled, 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.running, 0);
    assert_eq!(stats.admission.shed_tenant_saturated, 1);
    assert_eq!(stats.admission.shed_queue_full, 1);
    service.shutdown().expect("clean stop");
}

#[test]
fn failing_tenant_trips_its_breaker_without_hurting_others() {
    let mut service = EvalService::start(ServiceConfig {
        workers: 2,
        runners: 1,
        admission: AdmissionConfig {
            breaker: chipvqa::eval::supervisor::BreakerConfig {
                failure_threshold: 2,
                cooldown: 2,
                probe_successes: 1,
            },
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    })
    .expect("no store");

    // An empty model set is admitted but fails at run time — a tenant
    // fault that counts against the tenant's breaker.
    let broken = SessionRequest {
        models: Vec::new(),
        ..gpt4o_request("flaky")
    };
    for _ in 0..2 {
        let id = service
            .submit(broken.clone())
            .expect("breaker still closed");
        assert_eq!(
            service.wait(id, WAIT).expect("terminates"),
            SessionState::Failed
        );
        let snap = service.snapshot(id).expect("exists");
        assert!(snap.error.is_some(), "failed session carries its error");
    }

    // Breaker open: submissions shed without queueing, `cooldown` times.
    for _ in 0..2 {
        let shed = service.submit(broken.clone()).unwrap_err();
        assert!(
            matches!(&shed, ShedReason::TenantBreakerOpen { tenant } if tenant == "flaky"),
            "got {shed:?}"
        );
    }

    // Other tenants flow normally the whole time.
    let good = service.submit(gpt4o_request("steady")).expect("unaffected");
    assert_eq!(
        service.wait(good, WAIT).expect("terminates"),
        SessionState::Done
    );

    // Cooldown paid: the half-open probe admits, success closes.
    let probe = service
        .submit(gpt4o_request("flaky"))
        .expect("half-open probe");
    assert_eq!(
        service.wait(probe, WAIT).expect("terminates"),
        SessionState::Done
    );
    let after = service
        .submit(gpt4o_request("flaky"))
        .expect("breaker closed again");
    assert_eq!(
        service.wait(after, WAIT).expect("terminates"),
        SessionState::Done
    );

    let stats = service.stats();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.admission.shed_breaker_open, 2);
    assert_eq!(stats.admission.breaker_trips, 1);
    service.shutdown().expect("clean stop");
}

#[test]
fn graceful_shutdown_flushes_the_store_with_no_torn_tail() {
    let dir = temp_dir("shutdown");
    let rx;
    let in_flight;
    let queued;
    {
        // Scope-drop is the SIGTERM stand-in: the drop guard must run a
        // full graceful shutdown even without an explicit call.
        let service = EvalService::start(ServiceConfig {
            workers: 2,
            runners: 1,
            shard_batch: 1,
            step_delay: Duration::from_millis(25),
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("store opens");
        rx = service.subscribe();
        in_flight = service.submit(gpt4o_request("a")).expect("accepted");
        queued = service.submit(gpt4o_request("b")).expect("accepted");
        await_first_shard(&rx, in_flight);
        // service drops here, mid-run
    }

    // Drop joined every thread and cancelled everything in flight:
    // the event stream's last word on each session is terminal.
    let mut last_state = std::collections::HashMap::new();
    for event in rx.try_iter() {
        if let ProgressEvent::State { session, state } = event {
            last_state.insert(session, state);
        }
    }
    assert_eq!(last_state.get(&in_flight), Some(&SessionState::Cancelled));
    assert_eq!(last_state.get(&queued), Some(&SessionState::Cancelled));

    // The flushed store reopens with zero recovered segments — no torn
    // tail — and still serves the answers written before the stop.
    let store = AnswerStore::open_read_only(&dir).expect("reopens");
    let stats = store.stats();
    assert_eq!(
        (stats.recovered_segments, stats.recovered_bytes),
        (0, 0),
        "graceful shutdown must not tear the store tail"
    );
    assert!(
        stats.entries > 0,
        "the in-flight session's completed shards were flushed"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_rejects_new_work_and_is_idempotent() {
    let mut service = EvalService::new();
    let id = service.submit(gpt4o_request("t")).expect("accepted");
    assert_eq!(
        service.wait(id, WAIT).expect("terminates"),
        SessionState::Done
    );
    service.shutdown().expect("clean stop");
    assert_eq!(
        service.submit(gpt4o_request("t")).unwrap_err(),
        ShedReason::ShuttingDown
    );
    assert!(matches!(
        service.resume(id),
        Err(chipvqa::serve::SessionError::Shed(ShedReason::ShuttingDown))
            | Err(chipvqa::serve::SessionError::NotResumable(_, _))
    ));
    service.shutdown().expect("second shutdown is a no-op");
}

#[test]
fn concurrent_sessions_share_the_answer_plane() {
    let mut service = EvalService::start(ServiceConfig {
        workers: 2,
        runners: 2,
        ..ServiceConfig::default()
    })
    .expect("no store");
    let request = gpt4o_request("shared");
    let reference = batch_reference(&request);

    let ids: Vec<SessionId> = (0..4)
        .map(|_| service.submit(request.clone()).expect("accepted"))
        .collect();
    for id in &ids {
        assert_eq!(
            service.wait(*id, WAIT).expect("terminates"),
            SessionState::Done
        );
        assert_eq!(
            service.report(*id).expect("done").canonical_json(),
            reference,
            "shared cache must never change results"
        );
    }
    let stats = service.cache_stats();
    let bench_len = ChipVqa::standard().len() as u64;
    assert_eq!(stats.hits + stats.misses, 4 * bench_len);
    assert!(
        stats.hits > 0 && stats.misses < 4 * bench_len,
        "later sessions batch through earlier sessions' answers \
         (hits {}, misses {})",
        stats.hits,
        stats.misses
    );
    service.shutdown().expect("clean stop");
}

#[test]
fn progress_stream_narrates_the_full_lifecycle() {
    let mut service = EvalService::start(ServiceConfig {
        workers: 1,
        runners: 1,
        ..ServiceConfig::default()
    })
    .expect("no store");
    let rx = service.subscribe();
    let id = service.submit(gpt4o_request("observer")).expect("accepted");
    assert_eq!(
        service.wait(id, WAIT).expect("terminates"),
        SessionState::Done
    );

    let events: Vec<ProgressEvent> = rx.try_iter().collect();
    let states: Vec<SessionState> = events
        .iter()
        .filter_map(|e| match e {
            ProgressEvent::State { session, state } if *session == id => Some(*state),
            _ => None,
        })
        .collect();
    assert_eq!(
        states,
        vec![
            SessionState::Queued,
            SessionState::Admitted,
            SessionState::Running,
            SessionState::Done,
        ]
    );
    let mut shard_counts: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            ProgressEvent::Shard {
                session,
                shards_done,
                shards_total,
                model,
                ..
            } if *session == id => {
                assert_eq!(model, "GPT4o");
                assert_eq!(*shards_total, 9);
                Some(*shards_done)
            }
            _ => None,
        })
        .collect();
    shard_counts.sort_unstable();
    assert_eq!(shard_counts, (1..=9).collect::<Vec<usize>>());
    service.shutdown().expect("clean stop");
}

#[test]
fn session_api_rejects_nonsense() {
    let mut service = EvalService::new();
    let ghost = SessionId(999);
    assert!(matches!(
        service.cancel(ghost),
        Err(chipvqa::serve::SessionError::UnknownSession(_))
    ));
    assert!(matches!(
        service.report(ghost),
        Err(chipvqa::serve::SessionError::UnknownSession(_))
    ));
    let id = service.submit(gpt4o_request("t")).expect("accepted");
    assert_eq!(
        service.wait(id, WAIT).expect("terminates"),
        SessionState::Done
    );
    assert!(matches!(
        service.resume(id),
        Err(chipvqa::serve::SessionError::NotResumable(
            _,
            SessionState::Done
        ))
    ));
    assert!(matches!(
        service.cancel(id),
        Err(chipvqa::serve::SessionError::AlreadyTerminal(
            _,
            SessionState::Done
        ))
    ));
    service.shutdown().expect("clean stop");
}

#[test]
fn scaled_specs_and_multi_model_grids_serve_identically() {
    let mut service = EvalService::start(ServiceConfig {
        workers: 4,
        runners: 1,
        ..ServiceConfig::default()
    })
    .expect("no store");
    let request = SessionRequest {
        tenant: "grid".to_string(),
        models: vec![ModelZoo::gpt4o(), ModelZoo::llava_7b()],
        spec: DatasetSpec::scaled(2),
        options: EvalOptions::default(),
        fault_plan: None,
        stream_shard_len: None,
    };
    let reference = batch_reference(&request);
    let id = service.submit(request).expect("accepted");
    assert_eq!(
        service.wait(id, WAIT).expect("terminates"),
        SessionState::Done
    );
    assert_eq!(
        service.report(id).expect("done").canonical_json(),
        reference
    );
    service.shutdown().expect("clean stop");
}

#[test]
fn supervised_streamed_sessions_match_supervised_batch_bytes() {
    use chipvqa::eval::{FaultPlan, ParallelExecutor, Supervisor};

    let plan = FaultPlan::uniform(907, 0.04);
    let spec = DatasetSpec::scaled(2);
    let request = SessionRequest::single("chaos", ModelZoo::gpt4o())
        .with_spec(spec.clone())
        .with_fault_plan(plan.clone())
        .with_streaming(17);

    // Batch-supervised reference over the materialized bench, wrapped
    // like a session report (cache_stats cleared).
    let bench = spec.build();
    let exec = ParallelExecutor::new(2).with_supervisor(Supervisor::new(plan));
    let reference = SessionReport::new(vec![exec.evaluate(
        &VlmPipeline::new(ModelZoo::gpt4o()),
        &bench,
        request.options,
    )])
    .canonical_json();

    for workers in [1, 4] {
        let mut service = EvalService::start(ServiceConfig {
            workers,
            runners: 1,
            ..ServiceConfig::default()
        })
        .expect("no store");
        let id = service.submit(request.clone()).expect("accepted");
        assert_eq!(
            service.wait(id, WAIT).expect("terminates"),
            SessionState::Done
        );
        assert_eq!(
            service.report(id).expect("done").canonical_json(),
            reference,
            "streamed supervised session ({workers} workers) diverged from supervised batch"
        );
        service.shutdown().expect("clean stop");
    }
}

#[test]
fn streamed_sessions_without_chaos_match_the_batch_reference() {
    let request = SessionRequest::single("stream", ModelZoo::llava_7b())
        .with_spec(DatasetSpec::scaled(2))
        .with_streaming(1);
    let reference = batch_reference(&request);
    let mut service = EvalService::start(ServiceConfig {
        workers: 4,
        runners: 1,
        ..ServiceConfig::default()
    })
    .expect("no store");
    let id = service.submit(request).expect("accepted");
    assert_eq!(
        service.wait(id, WAIT).expect("terminates"),
        SessionState::Done
    );
    assert_eq!(
        service.report(id).expect("done").canonical_json(),
        reference
    );
    service.shutdown().expect("clean stop");
}

#[test]
fn cancelled_streamed_chaos_sessions_resume_to_identical_bytes() {
    use chipvqa::eval::{FaultPlan, ParallelExecutor, Supervisor};

    let plan = FaultPlan::uniform(31, 0.05);
    let spec = DatasetSpec::scaled(2);
    let request = SessionRequest {
        tenant: "restart".to_string(),
        models: vec![ModelZoo::gpt4o(), ModelZoo::llava_7b()],
        spec: spec.clone(),
        options: EvalOptions::default(),
        fault_plan: Some(plan.clone()),
        stream_shard_len: Some(17),
    };
    let bench = spec.build();
    let exec = ParallelExecutor::new(2).with_supervisor(Supervisor::new(plan));
    let reference = SessionReport::new(
        request
            .models
            .iter()
            .map(|profile| {
                exec.evaluate(&VlmPipeline::new(profile.clone()), &bench, request.options)
            })
            .collect(),
    )
    .canonical_json();

    let mut service = EvalService::start(ServiceConfig {
        workers: 2,
        runners: 1,
        ..ServiceConfig::default()
    })
    .expect("no store");
    let id = service.submit(request).expect("accepted");
    // Race a cancel against the run: streamed sessions cancel at model
    // granularity and retain no checkpoint, so whichever way the race
    // lands, the session either finishes or resumes from scratch — and
    // determinism converges both to the same bytes.
    let _ = service.cancel(id);
    let state = service.wait(id, WAIT).expect("terminates");
    if state == SessionState::Cancelled {
        service.resume(id).expect("cancelled sessions resume");
        assert_eq!(
            service.wait(id, WAIT).expect("terminates"),
            SessionState::Done
        );
    }
    assert_eq!(
        service.report(id).expect("done").canonical_json(),
        reference
    );
    service.shutdown().expect("clean stop");
}

#[test]
fn batch_sessions_over_different_specs_never_share_answers() {
    // Seeds of one spec share question ids (and many prompts), so only
    // the spec fingerprint in the cache key keeps a later session from
    // reading an earlier session's answers out of the shared cache.
    let mut service = EvalService::start(ServiceConfig {
        workers: 2,
        runners: 1,
        ..ServiceConfig::default()
    })
    .expect("no store");
    let seed = DatasetSpec::default().seed;
    for spec_seed in [seed, seed + 1, seed + 2] {
        let request = gpt4o_request("specs").with_spec(DatasetSpec::default().with_seed(spec_seed));
        let reference = batch_reference(&request);
        let id = service.submit(request).expect("accepted");
        assert_eq!(
            service.wait(id, WAIT).expect("terminates"),
            SessionState::Done
        );
        assert_eq!(
            service.report(id).expect("done").canonical_json(),
            reference,
            "spec seed {spec_seed} read another spec's answers"
        );
    }
    service.shutdown().expect("clean stop");
}

#[test]
fn supervised_batch_sessions_match_supervised_batch_bytes() {
    use chipvqa::eval::{FaultPlan, ParallelExecutor, Supervisor};

    chipvqa::eval::fault::install_quiet_panic_hook();
    let plan = FaultPlan::uniform(907, 0.04);
    let spec = DatasetSpec::scaled(2);
    let request = SessionRequest::single("chaos-batch", ModelZoo::gpt4o())
        .with_spec(spec.clone())
        .with_fault_plan(plan.clone());

    // Built as `supervised_streamed_sessions_match_supervised_batch_bytes`
    // builds it: the supervised executor over the materialized bench.
    let bench = spec.build();
    let exec = ParallelExecutor::new(2).with_supervisor(Supervisor::new(plan));
    let reference = SessionReport::new(vec![exec.evaluate(
        &VlmPipeline::new(ModelZoo::gpt4o()),
        &bench,
        request.options,
    )])
    .canonical_json();
    assert_ne!(
        reference,
        batch_reference(&request),
        "the plan must change the report"
    );

    for workers in [1, 4] {
        let mut service = EvalService::start(ServiceConfig {
            workers,
            runners: 1,
            ..ServiceConfig::default()
        })
        .expect("no store");
        let id = service.submit(request.clone()).expect("accepted");
        assert_eq!(
            service.wait(id, WAIT).expect("terminates"),
            SessionState::Done
        );
        assert_eq!(
            service.report(id).expect("done").canonical_json(),
            reference,
            "batch supervised session ({workers} workers) ignored its fault plan"
        );
        service.shutdown().expect("clean stop");
    }
}

#[test]
fn streamed_sessions_report_progress_per_shard() {
    let mut service = EvalService::start(ServiceConfig {
        workers: 2,
        runners: 1,
        ..ServiceConfig::default()
    })
    .expect("no store");
    let rx = service.subscribe();
    let id = service
        .submit(gpt4o_request("stream-progress").with_streaming(16))
        .expect("accepted");
    assert_eq!(
        service.wait(id, WAIT).expect("terminates"),
        SessionState::Done
    );
    let mut shards: Vec<(usize, usize, usize)> = rx
        .try_iter()
        .filter_map(|e| match e {
            ProgressEvent::Shard {
                session,
                model,
                q_start,
                q_end,
                shards_done,
                shards_total,
            } if session == id => {
                assert_eq!(model, "GPT4o");
                assert_eq!(shards_total, 9);
                Some((shards_done, q_start, q_end))
            }
            _ => None,
        })
        .collect();
    shards.sort_unstable();
    let dones: Vec<usize> = shards.iter().map(|s| s.0).collect();
    assert_eq!(dones, (1..=9).collect::<Vec<usize>>());
    let mut ranges: Vec<(usize, usize)> = shards.iter().map(|s| (s.1, s.2)).collect();
    ranges.sort_unstable();
    assert_eq!(ranges.first(), Some(&(0, 16)));
    assert_eq!(ranges.last(), Some(&(128, 142)));
    service.shutdown().expect("clean stop");
}
