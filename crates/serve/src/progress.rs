//! Streamed per-shard progress events.
//!
//! Progress is not a new instrumentation layer: the executor's shard
//! engine already emits a `stream.shard` span (with
//! `model`/`q_start`/`q_end` annotations) for every shard it completes,
//! whatever the shard source, into whatever [`Telemetry`] handle it
//! carries. The service gives each running
//! session its own handle whose sink — a
//! [`FnSink`](chipvqa_telemetry::FnSink) built by
//! [`session_progress_telemetry`] — converts those spans into
//! [`ProgressEvent::Shard`]s on the service's [`ProgressHub`].
//!
//! The hub is a replaying broadcast channel: subscribers get the full
//! backlog first (a late subscriber misses nothing), then live events
//! as they happen. Dead receivers are pruned on the next publish.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

use chipvqa_telemetry::{FnSink, Telemetry, TraceRecord};
use serde::{Deserialize, Serialize};

use crate::session::{SessionId, SessionState};

/// One progress event, serialized verbatim on the wire (the `serve`
/// bin streams these as JSON lines).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgressEvent {
    /// A session changed lifecycle state.
    State {
        /// The session.
        session: SessionId,
        /// The state it entered.
        state: SessionState,
    },
    /// A session completed one shard.
    Shard {
        /// The session.
        session: SessionId,
        /// Model the shard evaluated.
        model: String,
        /// First question index of the shard.
        q_start: usize,
        /// One past the last question index.
        q_end: usize,
        /// Shards completed so far (including this one).
        shards_done: usize,
        /// Shards the session needs in total.
        shards_total: usize,
    },
    /// The heartbeat saw no shard progress on a running session for
    /// longer than the configured stall window.
    Stalled {
        /// The session.
        session: SessionId,
        /// How long it has been idle, in milliseconds.
        idle_ms: u64,
    },
}

impl ProgressEvent {
    /// The session this event concerns.
    pub fn session(&self) -> SessionId {
        match self {
            ProgressEvent::State { session, .. }
            | ProgressEvent::Shard { session, .. }
            | ProgressEvent::Stalled { session, .. } => *session,
        }
    }
}

/// Poison-tolerant lock (executor workers publish shard events; a
/// caught worker panic must not wedge the hub).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Default)]
struct HubInner {
    backlog: Vec<ProgressEvent>,
    subscribers: Vec<Sender<ProgressEvent>>,
}

/// Replaying broadcast channel for [`ProgressEvent`]s.
#[derive(Default)]
pub struct ProgressHub {
    inner: Mutex<HubInner>,
}

impl ProgressHub {
    /// An empty hub.
    pub fn new() -> Self {
        ProgressHub::default()
    }

    /// Publishes one event to the backlog and every live subscriber;
    /// subscribers whose receiver was dropped are pruned.
    pub fn publish(&self, event: ProgressEvent) {
        let mut inner = lock(&self.inner);
        inner.backlog.push(event.clone());
        inner
            .subscribers
            .retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Subscribes: the receiver first yields the entire backlog, then
    /// live events.
    pub fn subscribe(&self) -> Receiver<ProgressEvent> {
        let (tx, rx) = channel();
        let mut inner = lock(&self.inner);
        for event in &inner.backlog {
            // the receiver cannot be dropped yet: we hold it
            let _ = tx.send(event.clone());
        }
        inner.subscribers.push(tx);
        rx
    }

    /// Events published so far.
    pub fn backlog_len(&self) -> usize {
        lock(&self.inner).backlog.len()
    }

    /// A copy of every event published so far.
    pub fn backlog(&self) -> Vec<ProgressEvent> {
        lock(&self.inner).backlog.clone()
    }
}

impl std::fmt::Debug for ProgressHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressHub")
            .field("backlog_len", &self.backlog_len())
            .finish()
    }
}

/// Builds the per-session [`Telemetry`] handle whose sink turns the
/// executor's `stream.shard` spans into [`ProgressEvent::Shard`]s.
///
/// `done` carries the session's completed-shard count (pre-seeded with
/// the checkpoint's count on resume, so a resumed session's events
/// continue the sequence instead of restarting at 1). `epoch` is bumped
/// on every shard — the heartbeat's stall detector watches it.
pub fn session_progress_telemetry(
    hub: Arc<ProgressHub>,
    session: SessionId,
    shards_total: usize,
    done: Arc<AtomicUsize>,
    epoch: Arc<AtomicU64>,
) -> Telemetry {
    let sink = FnSink::new(move |record: &TraceRecord| {
        if record.name() != "stream.shard" {
            return;
        }
        let (Some(model), Some(q_start), Some(q_end)) = (
            record.get("model"),
            record.get("q_start").and_then(|v| v.parse().ok()),
            record.get("q_end").and_then(|v| v.parse().ok()),
        ) else {
            return;
        };
        let shards_done = done.fetch_add(1, Ordering::SeqCst) + 1;
        epoch.fetch_add(1, Ordering::SeqCst);
        hub.publish(ProgressEvent::Shard {
            session,
            model: model.to_string(),
            q_start,
            q_end,
            shards_done,
            shards_total,
        });
    });
    Telemetry::builder().sink(Arc::new(sink)).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_event(id: u64, state: SessionState) -> ProgressEvent {
        ProgressEvent::State {
            session: SessionId(id),
            state,
        }
    }

    #[test]
    fn late_subscribers_replay_the_backlog() {
        let hub = ProgressHub::new();
        hub.publish(state_event(1, SessionState::Queued));
        hub.publish(state_event(1, SessionState::Running));
        let rx = hub.subscribe();
        hub.publish(state_event(1, SessionState::Done));
        let got: Vec<ProgressEvent> = rx.try_iter().collect();
        assert_eq!(
            got,
            vec![
                state_event(1, SessionState::Queued),
                state_event(1, SessionState::Running),
                state_event(1, SessionState::Done),
            ]
        );
        assert_eq!(hub.backlog_len(), 3);
    }

    #[test]
    fn dropped_receivers_are_pruned() {
        let hub = ProgressHub::new();
        let rx = hub.subscribe();
        drop(rx);
        hub.publish(state_event(1, SessionState::Queued));
        let live = hub.subscribe();
        hub.publish(state_event(1, SessionState::Running));
        assert_eq!(live.try_iter().count(), 2);
    }

    #[test]
    fn shard_spans_become_progress_events() {
        use chipvqa_core::ChipVqa;
        use chipvqa_eval::harness::EvalOptions;
        use chipvqa_eval::ParallelExecutor;
        use chipvqa_models::{ModelZoo, VlmPipeline};

        let hub = Arc::new(ProgressHub::new());
        let done = Arc::new(AtomicUsize::new(0));
        let epoch = Arc::new(AtomicU64::new(0));
        let bench = ChipVqa::standard();
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let tele = session_progress_telemetry(
            Arc::clone(&hub),
            SessionId(7),
            9,
            Arc::clone(&done),
            Arc::clone(&epoch),
        );
        let rx = hub.subscribe();
        ParallelExecutor::new(2).with_telemetry(tele).evaluate_grid(
            &pipes,
            &bench,
            EvalOptions::default(),
            &chipvqa_eval::RuleJudge::new(),
        );

        // 142 questions / 16-question shards → 9 shards
        let events: Vec<ProgressEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 9);
        assert_eq!(done.load(Ordering::SeqCst), 9);
        assert_eq!(epoch.load(Ordering::SeqCst), 9);
        let mut dones: Vec<usize> = events
            .iter()
            .map(|e| match e {
                ProgressEvent::Shard {
                    session,
                    model,
                    shards_done,
                    shards_total,
                    ..
                } => {
                    assert_eq!(*session, SessionId(7));
                    assert_eq!(model, "GPT4o");
                    assert_eq!(*shards_total, 9);
                    *shards_done
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        dones.sort_unstable();
        assert_eq!(dones, (1..=9).collect::<Vec<usize>>());
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            state_event(3, SessionState::Cancelled),
            ProgressEvent::Shard {
                session: SessionId(3),
                model: "GPT4o".to_string(),
                q_start: 0,
                q_end: 16,
                shards_done: 1,
                shards_total: 9,
            },
            ProgressEvent::Stalled {
                session: SessionId(3),
                idle_ms: 5000,
            },
        ];
        for event in events {
            let json = serde_json::to_string(&event).expect("serializes");
            let back: ProgressEvent = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, event);
            assert_eq!(event.session(), SessionId(3));
        }
    }
}
