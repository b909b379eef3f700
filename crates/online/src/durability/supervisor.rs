//! The supervisor: runs the durable ingest/advise loop on a worker
//! thread, survives panics, and controls overload.
//!
//! ## Restart protocol
//!
//! The worker owns a [`DurableEngine`]; each loop iteration opens (or
//! recovers) the engine and drives it from the shared envelope queue
//! inside `catch_unwind`. A panic drops the in-memory engine — its state
//! is in the journal — and the supervisor reopens it after an
//! exponential backoff with deterministic jitter, up to a restart
//! budget. Crucially the queue's *receiver lives outside* the unwinding
//! closure, so envelopes admitted during the outage are not lost: they
//! are drained, in order, by the restarted engine, which is what makes a
//! crash invisible in the final revision sequence.
//!
//! ## Degradation
//!
//! Past the restart budget the worker gives up per the
//! [`DegradationPolicy`]: `Strict` fails fast (producers get
//! [`IngestError::ConsumerGone`], `finish` returns the error);
//! `Warn`/`BestEffort` keep serving the last good placement through
//! [`Supervisor::placement`], explicitly marked stale.
//!
//! ## Overload control
//!
//! [`Supervisor::offer`] admits batches with a deadline: when the queue
//! stays full past it (a stalled or slow consumer), the batch is *shed*
//! — counted in `online.shed_events`, its time window accumulated and
//! journaled with the next admitted envelope so the loss is auditable
//! after recovery too, and [`Admission::Shed`] returned so the producer
//! knows immediately. Staleness (latest admitted stream time minus last
//! completed tick time) is exported as the `online.staleness_ms` gauge.

use super::engine::{DurabilityConfig, DurableEngine, RecoveryReport};
use super::queue::{self, Receiver, Sender, TrySendError};
use crate::config::OnlineConfig;
use crate::error::IngestError;
use crate::incremental::PlacementRevision;
use crate::ingest::StreamMeta;
use advisor::{AdvisorConfig, Algorithm};
use memtrace::{DegradationPolicy, DroppedWindow, EventBatch, SiteId, TierId, TraceError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Supervisor tuning.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker restarts allowed before degrading.
    pub restart_budget: u32,
    /// First backoff, milliseconds (doubles per consecutive restart).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_max_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// How long `offer` may wait on a full queue before shedding.
    pub admit_deadline: Duration,
    /// Envelope queue capacity (batches).
    pub queue_capacity: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            restart_budget: 3,
            backoff_base_ms: 5,
            backoff_max_ms: 500,
            jitter_seed: 0xec0_5eed,
            admit_deadline: Duration::from_millis(50),
            queue_capacity: 64,
        }
    }
}

/// Outcome of one admission attempt. Shedding is a *returned value*, not
/// a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The batch is queued for ingestion.
    Admitted,
    /// The queue stayed full past the deadline; the batch was dropped
    /// and its time window recorded for the audit trail.
    Shed,
}

/// The placement the supervisor can serve right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementView {
    /// Advisor epoch that produced it.
    pub epoch: u64,
    /// Per-site tier assignments, site-sorted.
    pub tiers: Vec<(SiteId, TierId)>,
    /// Fallback tier for unlisted sites.
    pub fallback: TierId,
    /// True when the worker is (or was) down and the view may lag the
    /// admitted stream — `BestEffort` serves it anyway, marked.
    pub stale: bool,
}

/// Final accounting returned by [`Supervisor::finish`].
#[derive(Debug, Clone)]
pub struct SupervisorOutcome {
    /// The full revision log.
    pub revisions: Vec<PlacementRevision>,
    /// Worker restarts that recovered successfully.
    pub recoveries: u64,
    /// Events dropped by overload shedding.
    pub shed_events: u64,
    /// Time window of the shed events.
    pub shed_window: DroppedWindow,
    /// True when the restart budget ran out and the engine degraded to
    /// serving stale state instead of failing.
    pub degraded: bool,
}

// Ingest envelopes are most of the queue; boxing the batch would only add
// an allocation per offer.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Envelope {
    Ingest {
        events: EventBatch,
        shed: Option<DroppedWindow>,
    },
    Tick {
        now: f64,
        shed: Option<DroppedWindow>,
    },
    /// Deterministic fault injection: the worker panics on receipt (the
    /// chaos harness's process-crash model, aligned to batch boundaries).
    InjectPanic(String),
    /// Deterministic fault injection: the worker stalls on receipt,
    /// letting tests engage the admission deadline reproducibly.
    InjectStall(Duration),
    /// Graceful shutdown: flush the journal, emit a final checkpoint,
    /// and exit the loop — the explicit end-of-stream control message a
    /// serving layer needs (channel hangup only works when the producer
    /// is being torn down too).
    Shutdown,
}

#[derive(Debug, Default)]
struct Shared {
    /// Last good placement published by a completed tick.
    view: Option<PlacementView>,
    /// Revision log mirror, refreshed per tick (for degraded finishes).
    revisions: Vec<PlacementRevision>,
    /// Shed events not yet journaled (piggybacked on the next envelope).
    pending_shed: DroppedWindow,
    shed_events: u64,
    shed_window: DroppedWindow,
    recoveries: u64,
    worker_down: bool,
    latest_event_t: f64,
    last_tick_t: f64,
}

impl Shared {
    fn staleness_ms(&self) -> f64 {
        ((self.latest_event_t - self.last_tick_t).max(0.0) * 1e3).min(f64::MAX)
    }
}

/// The supervised, crash-safe online placement service.
#[derive(Debug)]
pub struct Supervisor {
    tx: Option<Sender<Envelope>>,
    worker: JoinHandle<Result<Option<Vec<PlacementRevision>>, TraceError>>,
    shared: Arc<Mutex<Shared>>,
    deadline: Duration,
}

/// Deterministic jitter in `[0, half)` from a seed and the attempt number.
fn jitter_ms(seed: u64, attempt: u32, half: u64) -> u64 {
    let mut x = seed ^ ((attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x % half.max(1)
}

impl Supervisor {
    /// Spawns the worker. Recovery of any prior state in `durability.dir`
    /// happens on the worker thread; its [`RecoveryReport`] is delivered
    /// through `on_recovery` (called once per successful engine open,
    /// including restarts after panics).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        durability: DurabilityConfig,
        meta: StreamMeta,
        policy: DegradationPolicy,
        online_cfg: OnlineConfig,
        advisor_cfg: AdvisorConfig,
        algorithm: Algorithm,
        sup: SupervisorConfig,
        on_recovery: impl Fn(&RecoveryReport) + Send + 'static,
    ) -> Supervisor {
        let (tx, rx) = queue::bounded::<Envelope>(sup.queue_capacity.max(1));
        let shared = Arc::new(Mutex::new(Shared {
            latest_event_t: f64::NEG_INFINITY,
            last_tick_t: f64::NEG_INFINITY,
            ..Shared::default()
        }));
        let worker_shared = Arc::clone(&shared);
        let deadline = sup.admit_deadline;
        let worker = std::thread::spawn(move || {
            worker_main(
                rx,
                worker_shared,
                durability,
                meta,
                policy,
                online_cfg,
                advisor_cfg,
                algorithm,
                sup,
                on_recovery,
            )
        });
        Supervisor { tx: Some(tx), worker, shared, deadline }
    }

    fn sender(&self) -> Result<&Sender<Envelope>, IngestError> {
        self.tx.as_ref().ok_or(IngestError::ConsumerGone)
    }

    fn take_pending_shed(&self) -> Option<DroppedWindow> {
        let mut s = self.shared.lock().expect("supervisor state");
        (s.pending_shed.count > 0).then(|| std::mem::take(&mut s.pending_shed))
    }

    /// Offers a batch of events under the admission deadline. Returns
    /// [`Admission::Shed`] when the queue stayed full — the drop is
    /// counted, windowed, and journaled with the next admitted envelope.
    pub fn offer(&self, events: EventBatch) -> Result<Admission, IngestError> {
        if events.is_empty() {
            return Ok(Admission::Admitted);
        }
        let tx = self.sender()?;
        let last_t = events.ops.last().map(|&op| events.time_of(op));
        // A restarting worker still holds the queue, so offers during the
        // backoff window wait out the same admission deadline as any other
        // offer and are drained once the replacement recovers; only a
        // worker that is gone for good disconnects the queue.
        let env = Envelope::Ingest { events, shed: self.take_pending_shed() };
        match tx.send_deadline(env, self.deadline) {
            Ok(()) => {
                let mut s = self.shared.lock().expect("supervisor state");
                if let Some(t) = last_t {
                    if t.is_finite() && t > s.latest_event_t {
                        s.latest_event_t = t;
                    }
                }
                if s.last_tick_t.is_finite() && s.latest_event_t.is_finite() {
                    ecohmem_obs::gauge_set("online.staleness_ms", s.staleness_ms());
                }
                ecohmem_obs::gauge_raise("online.channel.depth_hwm", tx.len() as f64);
                Ok(Admission::Admitted)
            }
            Err(TrySendError::Full(env)) => {
                // Explicit shedding: put the envelope's events (and any
                // piggybacked window) back into the pending audit trail.
                let Envelope::Ingest { events, shed } = env else {
                    unreachable!("offer sends only ingest envelopes")
                };
                let mut s = self.shared.lock().expect("supervisor state");
                if let Some(w) = shed {
                    s.pending_shed.merge(&w);
                }
                let w = window_of(&events);
                s.pending_shed.merge(&w);
                s.shed_events += w.count;
                s.shed_window.merge(&w);
                ecohmem_obs::count("online.shed_events", w.count);
                Ok(Admission::Shed)
            }
            Err(TrySendError::Disconnected(_)) => Err(IngestError::ConsumerGone),
        }
    }

    /// Requests an epoch tick at stream time `now`. Ticks block (they are
    /// rare and must not be shed); a dead worker yields `ConsumerGone`.
    pub fn tick(&self, now: f64) -> Result<(), IngestError> {
        let tx = self.sender()?;
        let env = Envelope::Tick { now, shed: self.take_pending_shed() };
        tx.send(env).map_err(|_| IngestError::ConsumerGone)
    }

    /// Requests a graceful shutdown: the worker finishes everything
    /// admitted before this call, flushes the journal, writes a final
    /// checkpoint, and exits. Blocks only for queue admission; join the
    /// worker (and collect the revision log) with [`Supervisor::finish`].
    /// A restart of the same durability directory after a clean shutdown
    /// replays zero journal records.
    pub fn shutdown(&self) -> Result<(), IngestError> {
        let tx = self.sender()?;
        tx.send(Envelope::Shutdown).map_err(|_| IngestError::ConsumerGone)
    }

    /// Injects a worker panic (deterministic chaos fault).
    pub fn inject_panic(&self, reason: &str) -> Result<(), IngestError> {
        let tx = self.sender()?;
        tx.send(Envelope::InjectPanic(reason.to_string())).map_err(|_| IngestError::ConsumerGone)
    }

    /// Injects a worker stall (deterministic chaos fault).
    pub fn inject_stall(&self, dur: Duration) -> Result<(), IngestError> {
        let tx = self.sender()?;
        tx.send(Envelope::InjectStall(dur)).map_err(|_| IngestError::ConsumerGone)
    }

    /// The placement the service can answer with *right now*: the last
    /// good plan, marked stale while the worker is down or lagging. The
    /// `BestEffort` serving path during outages.
    pub fn placement(&self) -> Option<PlacementView> {
        let s = self.shared.lock().expect("supervisor state");
        s.view.clone().map(|mut v| {
            v.stale = v.stale || s.worker_down;
            v
        })
    }

    /// Worker restarts that have recovered so far.
    pub fn recoveries(&self) -> u64 {
        self.shared.lock().expect("supervisor state").recoveries
    }

    /// Closes the stream and joins the worker.
    pub fn finish(mut self) -> Result<SupervisorOutcome, TraceError> {
        drop(self.tx.take());
        let joined = self.worker.join().map_err(|_| {
            TraceError::Malformed("supervisor worker panicked outside its guard".into())
        })?;
        let s = self.shared.lock().expect("supervisor state");
        match joined {
            Ok(Some(revisions)) => Ok(SupervisorOutcome {
                revisions,
                recoveries: s.recoveries,
                shed_events: s.shed_events,
                shed_window: s.shed_window,
                degraded: false,
            }),
            Ok(None) => Ok(SupervisorOutcome {
                revisions: s.revisions.clone(),
                recoveries: s.recoveries,
                shed_events: s.shed_events,
                shed_window: s.shed_window,
                degraded: true,
            }),
            Err(e) => Err(e),
        }
    }
}

/// Marks the worker as gone: `placement()` serves the last view as
/// stale from now on.
fn mark_down(shared: &Mutex<Shared>) {
    let mut s = shared.lock().expect("supervisor state");
    s.worker_down = true;
    if let Some(v) = &mut s.view {
        v.stale = true;
    }
}

/// Terminal worker exit: envelopes still queued — admitted, but never
/// ingested — would otherwise vanish when the receiver drops. Fold them
/// into the shed accounting so the "overload is explicit, never silent"
/// contract holds even past the restart budget. Windows piggybacked for
/// journaling are skipped: their events were already counted at the
/// original shed decision.
fn drain_to_shed(rx: &Receiver<Envelope>, shared: &Mutex<Shared>) {
    let mut w = DroppedWindow::default();
    while let Some(env) = rx.try_recv() {
        if let Envelope::Ingest { events, .. } = env {
            w.merge(&window_of(&events));
        }
    }
    if w.count > 0 {
        let mut s = shared.lock().expect("supervisor state");
        s.shed_events += w.count;
        s.shed_window.merge(&w);
        ecohmem_obs::count("online.shed_events", w.count);
    }
}

/// The count and time window of a batch's events, read from its time
/// columns (the window takes no notice of their order).
fn window_of(events: &EventBatch) -> DroppedWindow {
    let mut w = DroppedWindow::default();
    let columns = [
        &events.alloc_times,
        &events.free_times,
        &events.load_times,
        &events.store_times,
        &events.phase_times,
    ];
    for &t in columns.into_iter().flatten() {
        w.note(t);
    }
    w
}

#[allow(clippy::too_many_arguments)]
fn worker_main(
    rx: Receiver<Envelope>,
    shared: Arc<Mutex<Shared>>,
    durability: DurabilityConfig,
    meta: StreamMeta,
    policy: DegradationPolicy,
    online_cfg: OnlineConfig,
    advisor_cfg: AdvisorConfig,
    algorithm: Algorithm,
    sup: SupervisorConfig,
    on_recovery: impl Fn(&RecoveryReport),
) -> Result<Option<Vec<PlacementRevision>>, TraceError> {
    let mut attempt: u32 = 0;
    loop {
        let (engine, report) = match DurableEngine::open(
            durability.clone(),
            meta.clone(),
            policy,
            online_cfg,
            advisor_cfg.clone(),
            algorithm,
        ) {
            Ok(opened) => opened,
            Err(e) => {
                // The worker is gone for good: mark the last view stale
                // (BestEffort keeps serving it) and account what was
                // queued, exactly as on the panic paths.
                mark_down(&shared);
                drain_to_shed(&rx, &shared);
                return Err(e);
            }
        };
        on_recovery(&report);
        {
            let mut s = shared.lock().expect("supervisor state");
            s.worker_down = false;
            if attempt > 0 || report.resumed {
                s.recoveries += 1;
                ecohmem_obs::incr("online.recoveries");
            }
        }

        let run = catch_unwind(AssertUnwindSafe(|| run_loop(&rx, engine, &shared)));
        match run {
            Ok(done) => {
                if done.is_err() {
                    mark_down(&shared);
                    drain_to_shed(&rx, &shared);
                }
                return done.map(Some);
            }
            Err(_panic) => {
                mark_down(&shared);
                attempt += 1;
                if attempt > sup.restart_budget {
                    drain_to_shed(&rx, &shared);
                    return match policy {
                        DegradationPolicy::Strict => Err(TraceError::Malformed(format!(
                            "online worker exhausted its restart budget ({} restarts)",
                            sup.restart_budget
                        ))),
                        // Degrade: the supervisor keeps serving the last
                        // good placement, marked stale.
                        _ => Ok(None),
                    };
                }
                let backoff = sup
                    .backoff_base_ms
                    .saturating_mul(1u64 << (attempt - 1).min(16))
                    .min(sup.backoff_max_ms);
                let jitter = jitter_ms(sup.jitter_seed, attempt, (backoff / 2).max(1));
                std::thread::sleep(Duration::from_millis(backoff + jitter));
            }
        }
    }
}

fn run_loop(
    rx: &Receiver<Envelope>,
    mut engine: DurableEngine,
    shared: &Mutex<Shared>,
) -> Result<Vec<PlacementRevision>, TraceError> {
    while let Some(env) = rx.recv() {
        match env {
            Envelope::Ingest { events, shed } => {
                if let Some(w) = shed {
                    engine.note_shed(w)?;
                }
                engine.ingest_batch(events)?;
            }
            Envelope::Tick { now, shed } => {
                if let Some(w) = shed {
                    engine.note_shed(w)?;
                }
                engine.tick(now)?;
                let adv = engine.advisor();
                let view = PlacementView {
                    epoch: adv.epochs(),
                    tiers: adv
                        .assignment()
                        .map(|a| {
                            let mut v: Vec<(SiteId, TierId)> =
                                a.tiers.iter().map(|(s, t)| (*s, *t)).collect();
                            v.sort_by_key(|(s, _)| *s);
                            v
                        })
                        .unwrap_or_default(),
                    fallback: adv.config().fallback,
                    stale: false,
                };
                let mut s = shared.lock().expect("supervisor state");
                s.view = Some(view);
                s.revisions = engine.revisions().to_vec();
                if now.is_finite() && now > s.last_tick_t {
                    s.last_tick_t = now;
                }
                if s.latest_event_t.is_finite() {
                    ecohmem_obs::gauge_set("online.staleness_ms", s.staleness_ms());
                }
            }
            Envelope::InjectPanic(reason) => {
                panic!("injected fault: {reason}");
            }
            Envelope::InjectStall(dur) => {
                std::thread::sleep(dur);
            }
            // Graceful end of stream: close() flushes the journal and
            // writes a final checkpoint, so the next open of this
            // directory restores without replaying a single WAL record.
            Envelope::Shutdown => return engine.close(),
        }
    }
    engine.close()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{BinaryMap, CallStack, Frame, ModuleId, ObjectId, TraceEvent};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ecohmem-supervisor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn meta() -> StreamMeta {
        StreamMeta {
            app_name: "supervised".into(),
            sampling_hz: 100.0,
            load_sample_period: 10.0,
            store_sample_period: 5.0,
            stacks: Arc::new(vec![
                (SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x10)])),
                (SiteId(1), CallStack::new(vec![Frame::new(ModuleId(0), 0x20)])),
            ]),
            binmap: Arc::new(BinaryMap::default()),
        }
    }

    /// Deterministic tests must never shed on timing: a generous
    /// admission deadline unless the test is about overload itself.
    fn patient() -> SupervisorConfig {
        SupervisorConfig { admit_deadline: Duration::from_secs(30), ..SupervisorConfig::default() }
    }

    fn spawn(
        dir: &std::path::Path,
        policy: DegradationPolicy,
        sup: SupervisorConfig,
    ) -> Supervisor {
        Supervisor::spawn(
            DurabilityConfig::new(dir),
            meta(),
            policy,
            OnlineConfig::default(),
            AdvisorConfig::loads_only(12),
            Algorithm::Base,
            sup,
            |_| {},
        )
    }

    fn alloc(t: f64, id: u64, site: u32, size: u64, addr: u64) -> TraceEvent {
        TraceEvent::Alloc { time: t, object: ObjectId(id), site: SiteId(site), size, address: addr }
    }

    #[test]
    fn clean_run_produces_revisions() {
        let dir = tmpdir("clean");
        let s = spawn(&dir, DegradationPolicy::Strict, patient());
        let mut events = vec![alloc(0.0, 1, 0, 1 << 30, 0x1000)];
        for i in 0..32 {
            events.push(TraceEvent::LoadMissSample {
                time: 0.1 + i as f64 * 0.01,
                address: 0x1000 + i * 64,
                latency_cycles: 300.0,
                function: memtrace::FuncId(0),
            });
        }
        s.offer(EventBatch::from_events(&events)).unwrap();
        s.tick(1.0).unwrap();
        let out = s.finish().unwrap();
        assert!(!out.degraded);
        assert_eq!(out.shed_events, 0);
        assert!(!out.revisions.is_empty(), "the hot site got placed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_shutdown_checkpoints_so_restart_replays_zero_wal_records() {
        let dir = tmpdir("clean-shutdown");
        let s = spawn(&dir, DegradationPolicy::Strict, patient());
        let mut events = vec![alloc(0.0, 1, 0, 1 << 30, 0x1000)];
        for i in 0..32 {
            events.push(TraceEvent::LoadMissSample {
                time: 0.1 + i as f64 * 0.01,
                address: 0x1000 + i * 64,
                latency_cycles: 300.0,
                function: memtrace::FuncId(0),
            });
        }
        s.offer(EventBatch::from_events(&events)).unwrap();
        s.tick(1.0).unwrap();
        s.offer(EventBatch::from_events(&[alloc(1.5, 2, 1, 1 << 20, 0x9000)])).unwrap();
        s.shutdown().unwrap();
        let out = s.finish().unwrap();
        assert!(!out.degraded);
        assert!(!out.revisions.is_empty());

        // Restart over the same directory: the final checkpoint covers
        // everything, so recovery resumes without replaying any journal
        // suffix — and none of the pre-shutdown state is lost.
        let reports: Arc<Mutex<Vec<RecoveryReport>>> = Arc::default();
        let sink = Arc::clone(&reports);
        let s2 = Supervisor::spawn(
            DurabilityConfig::new(&dir),
            meta(),
            DegradationPolicy::Strict,
            OnlineConfig::default(),
            AdvisorConfig::loads_only(12),
            Algorithm::Base,
            patient(),
            move |r| sink.lock().unwrap().push(r.clone()),
        );
        s2.tick(2.0).unwrap();
        let out2 = s2.finish().unwrap();
        let reports = reports.lock().unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].resumed, "restart resumed from the final checkpoint");
        assert_eq!(reports[0].replayed_records, 0, "clean shutdown left no WAL suffix");
        assert_eq!(reports[0].events_seen, 34, "pre-shutdown stream state survived");
        assert_eq!(
            out2.revisions[..out.revisions.len()],
            out.revisions[..],
            "the restored log extends the pre-shutdown log"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_panic_recovers_to_an_identical_revision_log() {
        let base = tmpdir("panic");
        let run = |with_panic: bool| {
            let dir = base.join(if with_panic { "crashed" } else { "smooth" });
            let s = spawn(&dir, DegradationPolicy::Strict, patient());
            s.offer(EventBatch::from_events(&[alloc(0.0, 1, 0, 1 << 30, 0x1000)])).unwrap();
            s.tick(1.0).unwrap();
            if with_panic {
                s.inject_panic("chaos").unwrap();
            }
            s.offer(EventBatch::from_events(&[alloc(1.5, 2, 1, 1 << 20, 0x9000)])).unwrap();
            s.tick(2.0).unwrap();
            s.finish().unwrap()
        };
        let crashed = run(true);
        let smooth = run(false);
        assert_eq!(crashed.revisions, smooth.revisions, "crash is invisible in the log");
        assert_eq!(crashed.recoveries, 1);
        assert_eq!(smooth.recoveries, 0);
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn stalled_consumer_sheds_explicitly() {
        let dir = tmpdir("stall");
        let sup = SupervisorConfig {
            queue_capacity: 1,
            admit_deadline: Duration::from_millis(5),
            ..SupervisorConfig::default()
        };
        let s = spawn(&dir, DegradationPolicy::BestEffort, sup);
        s.inject_stall(Duration::from_millis(150)).unwrap();
        // Fill the queue, then overflow it while the worker sleeps.
        let mut shed = 0;
        for i in 0..8u64 {
            match s
                .offer(EventBatch::from_events(&[alloc(
                    i as f64,
                    i + 1,
                    0,
                    4096,
                    0x1000 + i * 0x1000,
                )]))
                .unwrap()
            {
                Admission::Admitted => {}
                Admission::Shed => shed += 1,
            }
        }
        assert!(shed > 0, "deadline admission shed under overload");
        s.tick(10.0).unwrap();
        let out = s.finish().unwrap();
        assert_eq!(out.shed_events as usize, shed, "every shed batch is accounted");
        assert!(out.shed_window.first_time.is_some(), "shed window is auditable");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_budget_exhaustion_fails_fast_and_senders_see_consumer_gone() {
        let dir = tmpdir("budget-strict");
        let sup = SupervisorConfig { restart_budget: 1, backoff_base_ms: 1, ..patient() };
        let s = spawn(&dir, DegradationPolicy::Strict, sup);
        s.inject_panic("one").unwrap();
        s.inject_panic("two").unwrap();
        // The worker gives up after the second panic; wait for the queue
        // to disconnect, then the producer must see ConsumerGone.
        let mut gone = false;
        for _ in 0..200 {
            match s.offer(EventBatch::from_events(&[alloc(5.0, 9, 0, 64, 0x5000)])) {
                Err(IngestError::ConsumerGone) => {
                    gone = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(gone, "producer observes the dead consumer instead of hanging");
        assert!(s.finish().is_err(), "Strict fails fast past the budget");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queued_envelopes_are_shed_accounted_when_the_worker_dies_for_good() {
        let dir = tmpdir("terminal-drain");
        let sup = SupervisorConfig { restart_budget: 0, backoff_base_ms: 1, ..patient() };
        let s = spawn(&dir, DegradationPolicy::BestEffort, sup);
        // The stall parks the worker so everything below queues up behind
        // it: a fatal panic, then two admitted-but-never-ingested batches.
        s.inject_stall(Duration::from_millis(300)).unwrap();
        s.inject_panic("fatal").unwrap();
        s.offer(EventBatch::from_events(&[alloc(1.0, 1, 0, 4096, 0x1000)])).unwrap();
        s.offer(EventBatch::from_events(&[
            alloc(2.0, 2, 0, 4096, 0x2000),
            alloc(2.5, 3, 1, 4096, 0x3000),
        ]))
        .unwrap();
        let out = s.finish().unwrap();
        assert!(out.degraded);
        assert_eq!(out.shed_events, 3, "admitted-but-unprocessed events are accounted");
        assert_eq!(out.shed_window.first_time, Some(1.0));
        assert_eq!(out.shed_window.last_time, Some(2.5));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_engine_open_marks_the_worker_down() {
        let dir = tmpdir("open-fail");
        fs::create_dir_all(&dir).unwrap();
        // Occupy the durability root with a plain file: DurableEngine::open
        // cannot create `ckpt/` under it and fails without ever panicking.
        let occupied = dir.join("not-a-dir");
        fs::write(&occupied, b"occupied").unwrap();
        let s = spawn(&occupied, DegradationPolicy::BestEffort, patient());
        let mut down = false;
        for _ in 0..400 {
            if s.shared.lock().unwrap().worker_down {
                down = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(down, "open failure marks the worker down, not just dead");
        assert!(s.finish().is_err(), "the open error surfaces at finish");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn best_effort_serves_the_last_good_placement_marked_stale() {
        let dir = tmpdir("budget-soft");
        let sup = SupervisorConfig { restart_budget: 0, backoff_base_ms: 1, ..patient() };
        let s = spawn(&dir, DegradationPolicy::BestEffort, sup);
        s.offer(EventBatch::from_events(&[alloc(0.0, 1, 0, 1 << 30, 0x1000)])).unwrap();
        s.tick(1.0).unwrap();
        // Wait until the first tick published a live view.
        let mut live = None;
        for _ in 0..400 {
            if let Some(v) = s.placement() {
                live = Some(v);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let live = live.expect("a placement was published");
        assert!(!live.stale);
        assert_eq!(live.epoch, 1);
        s.inject_panic("fatal").unwrap();
        // Budget 0: the worker dies for good; the view degrades to stale.
        let mut stale = None;
        for _ in 0..400 {
            match s.placement() {
                Some(v) if v.stale => {
                    stale = Some(v);
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let stale = stale.expect("stale placement still served within one epoch");
        assert_eq!(stale.tiers, live.tiers, "it is the last good plan");
        let out = s.finish().unwrap();
        assert!(out.degraded);
        fs::remove_dir_all(&dir).unwrap();
    }
}
