//! The transport-free multi-tenant service core.
//!
//! A [`ServiceCore`] hosts N independent tenants on a **fixed worker
//! pool**. Each tenant owns a private placement engine (streaming
//! ingestor + incremental advisor, optionally wrapped in the durability
//! engine) and two bounded queues:
//!
//! * an **inbox** of `Work` items (event batches, ticks, finish) fed by
//!   the transport with *deadline admission* — a full inbox sheds the
//!   batch after [`ServeConfig::admission_timeout`] instead of stalling
//!   the connection reader;
//! * an **outbox** of [`Outbound`] items drained by the transport writer.
//!   A stalled reader fills its outbox and subsequent revisions are
//!   *dropped and counted*, never blocking a worker — one slow tenant
//!   cannot inflate anyone else's latency.
//!
//! ## Scheduling and the determinism guarantee
//!
//! Workers pull tenant ids off a shared ready queue. A per-tenant
//! `queued` token guarantees at most one worker processes a given tenant
//! at a time: whoever flips the token enqueues the id, the draining
//! worker clears it only after it stops touching the engine, and
//! re-enqueues if work raced in meanwhile. Per-tenant work is therefore
//! FIFO and single-threaded while tenants interleave freely across the
//! pool — which is exactly why a tenant's revision log is byte-identical
//! whether the pool has 1 worker, 8 workers, or the tenant runs alone
//! in-process (pinned by `tests/serve.rs`).
//!
//! ## Shared interned site tables
//!
//! Tenants streaming the same application re-send identical site tables
//! and binary maps. The core interns both behind `Arc`s keyed by a
//! content digest of exactly those two tables (with a full equality check
//! on hit — a collision can never alias two different tables), so K
//! tenants of one app share one table instead of K copies, whatever run
//! metadata (seed, duration, sample periods) their headers carry. The key
//! is the image's once-per-map [`BinaryMap::digest`] folded with a
//! [`WordHasher`] digest of the stack table; nothing is re-encoded. The
//! tables are read-mostly by construction: nothing on the ingest path
//! mutates them.

use advisor::{AdvisorConfig, Algorithm};
use ecohmem_online::durability::queue::{self, TrySendError};
use ecohmem_online::{
    DurabilityConfig, DurableEngine, IncrementalAdvisor, OnlineConfig, PlacementRevision,
    StreamIngestor, StreamMeta,
};
use memtrace::wordhash::WordHasher;
use memtrace::{
    BinaryMap, CallStack, DegradationPolicy, EventBatch, SiteId, TraceError, TraceEvent, TraceFile,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::ServeError;

/// Service tuning. `Default` is sized for tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads multiplexing all tenants.
    pub workers: usize,
    /// Admission cap: `register` refuses tenant `max_tenants + 1`.
    pub max_tenants: usize,
    /// Per-tenant inbox depth (work items).
    pub inbox_capacity: usize,
    /// Per-tenant outbox depth (revision/notice frames).
    pub outbox_capacity: usize,
    /// How long admission may wait on a full inbox before shedding.
    pub admission_timeout: Duration,
    /// When set, every tenant runs the crash-safe durability engine with
    /// its journal under `<journal_dir>/<tenant>/`.
    pub journal_dir: Option<PathBuf>,
    /// DRAM budget handed to each tenant's advisor, GiB.
    pub dram_gib: u64,
    /// Placement algorithm for every tenant.
    pub algorithm: Algorithm,
    /// Streaming-engine knobs (window, decay, hysteresis, …).
    pub online: OnlineConfig,
    /// Degradation policy for malformed event streams.
    pub policy: DegradationPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_tenants: 1024,
            inbox_capacity: 64,
            outbox_capacity: 256,
            admission_timeout: Duration::from_millis(25),
            journal_dir: None,
            dram_gib: 12,
            algorithm: Algorithm::Base,
            online: OnlineConfig::default(),
            policy: DegradationPolicy::Strict,
        }
    }
}

/// Admission verdict for one event batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// Queued for the tenant's engine.
    Accepted,
    /// The inbox stayed full past the deadline; the batch was dropped
    /// and counted (`serve.shed`), and the client will see a Shed frame.
    Shed,
}

/// What the core hands the transport writer for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum Outbound {
    /// Plan diffs from one tick — every tick produces exactly one such
    /// message (possibly empty), which doubles as the tick ack.
    Revisions(Vec<PlacementRevision>),
    /// `dropped` items were shed since the last notice.
    Shed {
        /// Batches dropped at admission since the previous notice.
        dropped: u64,
    },
    /// Clean end of session; the total revision count over its lifetime.
    Finished {
        /// Lifetime revision count (for the Bye frame).
        revisions: u64,
    },
    /// The engine failed; the session is dead.
    Error(String),
}

// Batches are most of the work items; boxing them would only add an
// allocation per batch.
#[allow(clippy::large_enum_variant)]
enum Work {
    Ingest(EventBatch),
    Tick { now: f64, t0: Instant },
    Finish,
}

/// Callback invoked (from worker threads) after every successful outbox
/// push, so an event-driven transport can wake the shard that owns the
/// connection instead of parking a thread on `outbox.recv()`.
pub type OutboxNotify = Arc<dyn Fn() + Send + Sync>;

/// A tenant's private placement engine.
enum Engine {
    Plain { ingestor: Box<StreamIngestor>, advisor: Box<IncrementalAdvisor>, revisions: u64 },
    Durable { engine: Box<DurableEngine> },
}

impl Engine {
    /// Ingests one batch. A plain engine hands the spent batch back for
    /// recycling; a durable one keeps it (its journal record owns it).
    fn ingest(&mut self, events: EventBatch) -> Result<Option<EventBatch>, TraceError> {
        match self {
            Engine::Plain { ingestor, .. } => {
                ingestor.push_batch(&events)?;
                Ok(Some(events))
            }
            Engine::Durable { engine } => engine.ingest_batch(events).map(|()| None),
        }
    }

    fn tick(&mut self, now: f64) -> Result<Vec<PlacementRevision>, TraceError> {
        match self {
            Engine::Plain { ingestor, advisor, revisions } => {
                let revs = advisor.tick(&mut **ingestor, now);
                *revisions += revs.len() as u64;
                Ok(revs)
            }
            Engine::Durable { engine } => engine.tick(now).map(|r| r.to_vec()),
        }
    }

    fn close(self) -> u64 {
        match self {
            Engine::Plain { revisions, .. } => revisions,
            Engine::Durable { engine } => {
                // Flush + final checkpoint; the count is the full log.
                engine.close().map(|log| log.len() as u64).unwrap_or(0)
            }
        }
    }
}

struct TenantState {
    id: u64,
    name: String,
    inbox_tx: queue::Sender<Work>,
    inbox_rx: queue::Receiver<Work>,
    /// The scheduling token: set ⇔ the id is in the ready queue or a
    /// worker is draining this tenant right now.
    queued: AtomicBool,
    engine: Mutex<Option<Engine>>,
    outbox_tx: queue::Sender<Outbound>,
    /// Admission-shed batches not yet reported in a Shed notice.
    shed_pending: AtomicU64,
    /// Outbound items dropped because the reader stalled (lifetime).
    stalled_drops: AtomicU64,
    /// Transport wake-up hook, fired after each successful outbox push.
    notify: Mutex<Option<OutboxNotify>>,
    /// Spent batches the worker handed back, at most [`SPARE_BATCHES`]:
    /// the transport decodes the tenant's next Events frames into them.
    spares: Mutex<Vec<EventBatch>>,
}

impl TenantState {
    /// Non-blocking outbox push; a full outbox means a stalled reader, so
    /// the item is dropped and counted instead of blocking the worker.
    fn push_out(&self, item: Outbound) {
        if self.outbox_tx.try_send(item).is_err() {
            self.stalled_drops.fetch_add(1, Ordering::Relaxed);
            ecohmem_obs::incr("serve.stalled_drops");
        } else {
            self.wake_transport();
        }
    }

    /// Keeps a spent batch for the transport to decode into, unless the
    /// spare list is full.
    fn recycle(&self, batch: EventBatch) {
        let mut spares = self.spares.lock().expect("spares lock");
        if spares.len() < SPARE_BATCHES {
            spares.push(batch);
        }
    }

    /// Fires the transport notify hook, if one is installed. Called with
    /// no locks held beyond the brief clone of the hook itself.
    fn wake_transport(&self) {
        let hook = self.notify.lock().expect("notify lock").clone();
        if let Some(hook) = hook {
            hook();
        }
    }
}

type InternEntry = (Arc<Vec<(SiteId, CallStack)>>, Arc<BinaryMap>);

struct CoreInner {
    cfg: ServeConfig,
    ready_tx: Mutex<Option<queue::Sender<u64>>>,
    tenants: Mutex<HashMap<u64, Arc<TenantState>>>,
    names: Mutex<HashMap<String, u64>>,
    next_id: AtomicU64,
    interner: Mutex<HashMap<u64, Vec<InternEntry>>>,
    intern_hits: AtomicU64,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Handle for submitting a tenant's work into the core. Owned by the
/// transport's connection reader (or a bench driver).
#[derive(Clone)]
pub struct TenantClient {
    inner: Arc<CoreInner>,
    state: Arc<TenantState>,
}

/// The multi-tenant service. Cheap to clone; all clones share one pool.
#[derive(Clone)]
pub struct ServiceCore {
    inner: Arc<CoreInner>,
}

/// The interner's bucket key: a digest of the two tables the bucket's
/// equality check compares, the image and the stack table.
fn table_key(stacks: &[(SiteId, CallStack)], binmap: &BinaryMap) -> u64 {
    let mut h = WordHasher::default();
    h.word(binmap.digest());
    h.word(stacks.len() as u64);
    for (site, stack) in stacks {
        h.word(u64::from(site.0));
        h.word(stack.frames().len() as u64);
        for f in stack.frames() {
            h.word(u64::from(f.module.0));
            h.word(f.offset);
        }
    }
    h.finish()
}

/// How many inbox items one worker drains before releasing the tenant —
/// bounds how long one busy tenant can monopolize a worker.
const MAX_DRAIN: usize = 32;

/// Spent batches a tenant keeps for its next Events frames. A transport
/// that keeps pace with the worker takes one back per frame, so a few
/// cover the steady state; a burst beyond them decodes into fresh
/// batches, and what the list cannot hold is freed.
const SPARE_BATCHES: usize = 4;

impl ServiceCore {
    /// Boots the worker pool and an empty tenant registry.
    pub fn new(cfg: ServeConfig) -> ServiceCore {
        let workers = cfg.workers.max(1);
        // Capacity: each live tenant holds at most one ready token, plus
        // slack for tokens of tenants removed while still enqueued.
        let (ready_tx, ready_rx) = queue::bounded::<u64>(cfg.max_tenants + workers * 4);
        let inner = Arc::new(CoreInner {
            cfg,
            ready_tx: Mutex::new(Some(ready_tx)),
            tenants: Mutex::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            interner: Mutex::new(HashMap::new()),
            intern_hits: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let ready_rx = Arc::new(ready_rx);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&ready_rx);
            let inn = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(tid) = rx.recv() {
                            inn.process_tenant(tid);
                        }
                    })
                    .expect("spawn serve worker"),
            );
        }
        *inner.workers.lock().expect("workers lock") = handles;
        ServiceCore { inner }
    }

    /// Opens a tenant session: admission check, site-table interning,
    /// engine construction. Returns the work handle and the outbox the
    /// transport writer drains.
    pub fn register(
        &self,
        name: &str,
        header: &TraceFile,
    ) -> Result<(TenantClient, queue::Receiver<Outbound>), ServeError> {
        let inner = &self.inner;
        {
            let tenants = inner.tenants.lock().expect("tenants lock");
            if tenants.len() >= inner.cfg.max_tenants {
                return Err(ServeError::Refused(format!(
                    "at capacity ({} tenants)",
                    inner.cfg.max_tenants
                )));
            }
        }
        {
            // Reserve the name before the (potentially journal-creating)
            // engine build so a duplicate is refused with no side effects.
            let mut names = inner.names.lock().expect("names lock");
            if names.contains_key(name) {
                return Err(ServeError::Refused(format!("tenant {name:?} already connected")));
            }
            names.insert(name.to_string(), 0);
        }
        let unreserve = |inner: &CoreInner| {
            inner.names.lock().expect("names lock").remove(name);
        };
        let (stacks, binmap) = inner.intern_tables(header);
        let meta = StreamMeta {
            app_name: header.app_name.clone(),
            sampling_hz: header.sampling_hz,
            load_sample_period: header.load_sample_period,
            store_sample_period: header.store_sample_period,
            stacks,
            binmap,
        };
        let advisor_cfg = AdvisorConfig::loads_only(inner.cfg.dram_gib);
        let hysteresis = inner.cfg.online.hysteresis;
        let engine = match &inner.cfg.journal_dir {
            None => Engine::Plain {
                ingestor: Box::new(StreamIngestor::new(meta, inner.cfg.policy, inner.cfg.online)),
                advisor: Box::new(
                    IncrementalAdvisor::new(advisor_cfg, inner.cfg.algorithm)
                        .with_hysteresis(hysteresis),
                ),
                revisions: 0,
            },
            Some(root) => {
                let dir = root.join(sanitize(name));
                let opened = DurableEngine::open(
                    DurabilityConfig::new(dir),
                    meta,
                    inner.cfg.policy,
                    inner.cfg.online,
                    advisor_cfg,
                    inner.cfg.algorithm,
                );
                match opened {
                    Ok((engine, _report)) => Engine::Durable { engine: Box::new(engine) },
                    Err(e) => {
                        unreserve(inner);
                        return Err(ServeError::Trace(e));
                    }
                }
            }
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.names.lock().expect("names lock").insert(name.to_string(), id);
        let (inbox_tx, inbox_rx) = queue::bounded(inner.cfg.inbox_capacity);
        let (outbox_tx, outbox_rx) = queue::bounded(inner.cfg.outbox_capacity);
        let state = Arc::new(TenantState {
            id,
            name: name.to_string(),
            inbox_tx,
            inbox_rx,
            queued: AtomicBool::new(false),
            engine: Mutex::new(Some(engine)),
            outbox_tx,
            shed_pending: AtomicU64::new(0),
            stalled_drops: AtomicU64::new(0),
            notify: Mutex::new(None),
            spares: Mutex::new(Vec::with_capacity(SPARE_BATCHES)),
        });
        let n = {
            let mut tenants = inner.tenants.lock().expect("tenants lock");
            tenants.insert(id, Arc::clone(&state));
            tenants.len()
        };
        ecohmem_obs::gauge_set("serve.tenants", n as f64);
        ecohmem_obs::incr("serve.tenants_total");
        Ok((TenantClient { inner: Arc::clone(inner), state }, outbox_rx))
    }

    /// Live tenant count.
    pub fn tenants(&self) -> usize {
        self.inner.tenants.lock().expect("tenants lock").len()
    }

    /// Distinct interned site tables currently shared.
    pub fn interned_tables(&self) -> usize {
        self.inner.interner.lock().expect("interner lock").values().map(Vec::len).sum()
    }

    /// Registrations that reused an already-interned table.
    pub fn intern_hits(&self) -> u64 {
        self.inner.intern_hits.load(Ordering::Relaxed)
    }

    /// Stops the worker pool after the ready queue drains. Tenants still
    /// registered lose their engines without a final flush — transports
    /// should finish their tenants first.
    pub fn shutdown(&self) {
        drop(self.inner.ready_tx.lock().expect("ready lock").take());
        let handles = std::mem::take(&mut *self.inner.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

impl CoreInner {
    fn intern_tables(&self, header: &TraceFile) -> InternEntry {
        let key = table_key(&header.stacks, &header.binmap);
        let mut interner = self.interner.lock().expect("interner lock");
        let bucket = interner.entry(key).or_default();
        for (stacks, binmap) in bucket.iter() {
            if **stacks == header.stacks && **binmap == header.binmap {
                self.intern_hits.fetch_add(1, Ordering::Relaxed);
                return (Arc::clone(stacks), Arc::clone(binmap));
            }
        }
        let entry: InternEntry = (Arc::new(header.stacks.clone()), Arc::new(header.binmap.clone()));
        bucket.push(entry.clone());
        entry
    }

    fn send_ready(&self, id: u64) -> bool {
        match &*self.ready_tx.lock().expect("ready lock") {
            Some(tx) => tx.send(id).is_ok(),
            None => false,
        }
    }

    fn remove_tenant(&self, id: u64) {
        let n = {
            let mut tenants = self.tenants.lock().expect("tenants lock");
            if let Some(st) = tenants.remove(&id) {
                self.names.lock().expect("names lock").remove(&st.name);
            }
            tenants.len()
        };
        ecohmem_obs::gauge_set("serve.tenants", n as f64);
    }

    fn process_tenant(&self, id: u64) {
        let st = {
            let tenants = self.tenants.lock().expect("tenants lock");
            match tenants.get(&id) {
                Some(st) => Arc::clone(st),
                None => return, // removed while its token was in flight
            }
        };
        let mut engine = st.engine.lock().expect("engine lock");
        let mut drained = 0;
        while drained < MAX_DRAIN {
            let Some(work) = st.inbox_rx.try_recv() else { break };
            drained += 1;
            self.handle(&st, &mut engine, work);
        }
        drop(engine);
        // Release the token *after* the engine lock: nobody can observe a
        // free token while this worker still owns the tenant.
        st.queued.store(false, Ordering::Release);
        if !st.inbox_tx.is_empty()
            && !st.queued.swap(true, Ordering::AcqRel)
            && !self.send_ready(id)
        {
            st.queued.store(false, Ordering::Release);
        }
    }

    fn handle(&self, st: &TenantState, engine: &mut Option<Engine>, work: Work) {
        match work {
            Work::Ingest(events) => {
                let Some(eng) = engine.as_mut() else { return };
                match eng.ingest(events) {
                    Ok(Some(spent)) => st.recycle(spent),
                    Ok(None) => {}
                    Err(err) => {
                        st.push_out(Outbound::Error(format!("ingest failed: {err}")));
                        *engine = None;
                        self.remove_tenant(st.id);
                    }
                }
            }
            Work::Tick { now, t0 } => {
                let outcome = match engine.as_mut() {
                    Some(eng) => eng.tick(now),
                    None => return,
                };
                match outcome {
                    Ok(revs) => {
                        ecohmem_obs::observe(
                            "serve.revision_latency_us",
                            t0.elapsed().as_micros() as u64,
                        );
                        ecohmem_obs::count("serve.revisions", revs.len() as u64);
                        st.push_out(Outbound::Revisions(revs));
                    }
                    Err(err) => {
                        st.push_out(Outbound::Error(format!("tick failed: {err}")));
                        *engine = None;
                        self.remove_tenant(st.id);
                    }
                }
            }
            Work::Finish => {
                let total = engine.take().map(Engine::close).unwrap_or(0);
                // Deregister before notifying: anyone who observes the
                // Finished ack must also observe the freed slot.
                self.remove_tenant(st.id);
                // The final ack must reach the writer even through a full
                // outbox — give it a real deadline before giving up.
                if st
                    .outbox_tx
                    .send_deadline(
                        Outbound::Finished { revisions: total },
                        Duration::from_millis(250),
                    )
                    .is_err()
                {
                    st.stalled_drops.fetch_add(1, Ordering::Relaxed);
                } else {
                    st.wake_transport();
                }
            }
        }
    }
}

impl TenantClient {
    /// The server-assigned tenant id.
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The tenant's registry name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// Lifetime count of outbound items dropped on a stalled reader.
    pub fn stalled_drops(&self) -> u64 {
        self.state.stalled_drops.load(Ordering::Relaxed)
    }

    /// Installs the transport wake-up hook: fired (from a worker thread)
    /// after every successful outbox push. An event-driven transport
    /// registers a hook that nudges the owning reactor shard; items
    /// pushed *before* installation are not signalled, so the installer
    /// must drain the outbox once afterwards.
    pub fn set_notify(&self, hook: OutboxNotify) {
        *self.state.notify.lock().expect("notify lock") = Some(hook);
    }

    fn schedule(&self) {
        if !self.state.queued.swap(true, Ordering::AcqRel) && !self.inner.send_ready(self.state.id)
        {
            self.state.queued.store(false, Ordering::Release);
        }
    }

    fn submit(&self, work: Work) -> Result<Admitted, ServeError> {
        match self.state.inbox_tx.send_deadline(work, self.inner.cfg.admission_timeout) {
            Ok(()) => {
                self.schedule();
                Ok(Admitted::Accepted)
            }
            Err(TrySendError::Full(_)) => {
                ecohmem_obs::incr("serve.shed");
                let pending = self.state.shed_pending.fetch_add(1, Ordering::Relaxed) + 1;
                if self.state.outbox_tx.try_send(Outbound::Shed { dropped: pending }).is_ok() {
                    self.state.shed_pending.fetch_sub(pending, Ordering::Relaxed);
                    self.state.wake_transport();
                }
                Ok(Admitted::Shed)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::TenantGone),
        }
    }

    /// A batch this tenant's worker has ingested and handed back, for the
    /// transport to decode the next Events frame into
    /// ([`crate::proto::decode_with`] empties it first); `None` when no
    /// spare is waiting.
    pub fn recycled_batch(&self) -> Option<EventBatch> {
        self.state.spares.lock().expect("spares lock").pop()
    }

    /// Queues an event batch; sheds after the admission deadline.
    pub fn ingest(&self, events: Vec<TraceEvent>) -> Result<Admitted, ServeError> {
        self.ingest_batch(EventBatch::from_events(&events))
    }

    /// Queues a columnar event batch (what an Events frame decodes to);
    /// sheds after the admission deadline.
    pub fn ingest_batch(&self, events: EventBatch) -> Result<Admitted, ServeError> {
        if events.is_empty() {
            return Ok(Admitted::Accepted);
        }
        self.submit(Work::Ingest(events))
    }

    /// Queues an epoch tick. The answering [`Outbound::Revisions`] carries
    /// this tick's plan diff; its latency lands in
    /// `serve.revision_latency_us`.
    pub fn tick(&self, now: f64) -> Result<Admitted, ServeError> {
        self.submit(Work::Tick { now, t0: Instant::now() })
    }

    /// Queues the final flush. Uses a long deadline rather than the tick
    /// admission timeout — the close should happen — but a tenant whose
    /// inbox stays full that long is dead (already failed and
    /// deregistered), and blocking forever would wedge the transport.
    pub fn finish(&self) -> Result<(), ServeError> {
        self.state
            .inbox_tx
            .send_deadline(Work::Finish, Duration::from_secs(5))
            .map_err(|_| ServeError::TenantGone)?;
        self.schedule();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{Frame, ModuleId, ObjectId};

    fn header(app: &str) -> TraceFile {
        TraceFile {
            app_name: app.into(),
            seed: 1,
            ranks: 1,
            sampling_hz: 1000.0,
            load_sample_period: 10.0,
            store_sample_period: 5.0,
            duration: 2.0,
            stacks: vec![
                (SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x10)])),
                (SiteId(1), CallStack::new(vec![Frame::new(ModuleId(0), 0x20)])),
            ],
            binmap: BinaryMap::default(),
            events: EventBatch::default(),
        }
    }

    fn feed(n_allocs: u64) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for i in 0..n_allocs {
            events.push(TraceEvent::Alloc {
                time: 0.01 * i as f64,
                object: ObjectId(i + 1),
                site: SiteId((i % 2) as u32),
                size: 1 << 30,
                address: 0x1000_0000 + (i << 32),
            });
        }
        for i in 0..32u64 {
            events.push(TraceEvent::LoadMissSample {
                time: 0.5 + 0.001 * i as f64,
                address: 0x1000_0000 + ((i % n_allocs) << 32) + 64,
                latency_cycles: 300.0,
                function: memtrace::FuncId(0),
            });
        }
        events
    }

    fn drain(rx: &queue::Receiver<Outbound>) -> Vec<Outbound> {
        let mut out = Vec::new();
        loop {
            match rx.recv_deadline(Duration::from_secs(5)) {
                Ok(Outbound::Finished { revisions }) => {
                    out.push(Outbound::Finished { revisions });
                    return out;
                }
                Ok(item) => out.push(item),
                Err(_) => panic!("tenant outbox went quiet before Finished"),
            }
        }
    }

    #[test]
    fn one_tenant_ticks_and_finishes() {
        let core = ServiceCore::new(ServeConfig { workers: 1, ..ServeConfig::default() });
        let (t, rx) = core.register("t0", &header("toy")).unwrap();
        assert_eq!(t.ingest(feed(2)).unwrap(), Admitted::Accepted);
        assert_eq!(t.tick(1.0).unwrap(), Admitted::Accepted);
        t.finish().unwrap();
        let out = drain(&rx);
        let revs: Vec<_> = out
            .iter()
            .filter_map(|o| match o {
                Outbound::Revisions(r) => Some(r.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(revs.len(), 1, "one tick → one Revisions ack: {out:?}");
        assert!(!revs[0].is_empty(), "1 GiB objects under a 12 GiB budget must move");
        assert_eq!(core.tenants(), 0, "finish deregisters");
        core.shutdown();
    }

    #[test]
    fn a_plain_engine_hands_ingested_batches_back_up_to_the_bound() {
        let core = ServiceCore::new(ServeConfig { workers: 1, ..ServeConfig::default() });
        let (t, rx) = core.register("t0", &header("toy")).unwrap();
        assert!(t.recycled_batch().is_none(), "a new tenant has no spares");
        let batches: Vec<EventBatch> = (0..SPARE_BATCHES + 2)
            .map(|k| {
                let mut b = EventBatch::default();
                b.push_load(0.01 * k as f64, 0x40, 300.0, memtrace::FuncId(0));
                b
            })
            .collect();
        for b in &batches {
            assert_eq!(t.ingest_batch(b.clone()).unwrap(), Admitted::Accepted);
        }
        // The tick's ack comes after every batch queued before it.
        t.tick(1.0).unwrap();
        match rx.recv_deadline(Duration::from_secs(5)) {
            Ok(Outbound::Revisions(_)) => {}
            other => panic!("expected the tick's ack, got {other:?}"),
        }
        let mut spares: Vec<EventBatch> = std::iter::from_fn(|| t.recycled_batch()).collect();
        spares.reverse();
        // The first batches back fill the list; the rest are freed.
        assert_eq!(spares, batches[..SPARE_BATCHES], "spares come back as they were ingested");
        t.finish().unwrap();
        drain(&rx);
        core.shutdown();
    }

    #[test]
    fn same_app_tenants_share_one_interned_site_table() {
        let core = ServiceCore::new(ServeConfig { workers: 1, ..ServeConfig::default() });
        let (a, _rxa) = core.register("a", &header("toy")).unwrap();
        let (b, _rxb) = core.register("b", &header("toy")).unwrap();
        let (_c, _rxc) = core.register("c", &header("other")).unwrap();
        assert_eq!(core.interned_tables(), 1, "same tables intern to one entry");
        assert_eq!(core.intern_hits(), 2);
        drop((a, b));
        core.shutdown();
    }

    #[test]
    fn capacity_and_duplicate_names_are_refused() {
        let core =
            ServiceCore::new(ServeConfig { workers: 1, max_tenants: 1, ..ServeConfig::default() });
        let (_t, _rx) = core.register("only", &header("toy")).unwrap();
        let Err(err) = core.register("more", &header("toy")) else { panic!("expected refusal") };
        assert!(err.to_string().contains("at capacity"), "{err}");
        core.shutdown();

        let core = ServiceCore::new(ServeConfig { workers: 1, ..ServeConfig::default() });
        let (_t, _rx) = core.register("dup", &header("toy")).unwrap();
        let Err(err) = core.register("dup", &header("toy")) else { panic!("expected refusal") };
        assert!(err.to_string().contains("already connected"), "{err}");
        core.shutdown();
    }

    #[test]
    fn full_inbox_sheds_instead_of_blocking_and_reports_it() {
        let core = ServiceCore::new(ServeConfig {
            workers: 1,
            inbox_capacity: 1,
            admission_timeout: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        let (t, rx) = core.register("t0", &header("toy")).unwrap();
        // A long tick keeps the worker busy? No injectable stall here —
        // instead flood faster than one worker drains a capacity-1 inbox.
        let mut shed = 0;
        for _ in 0..64 {
            if t.ingest(feed(1)).unwrap() == Admitted::Shed {
                shed += 1;
            }
        }
        if shed == 0 {
            // Single-core schedulers can drain everything; force the case
            // by filling the inbox while holding the engine lock.
            let _guard = t.state.engine.lock().unwrap();
            let one = EventBatch::from_events(&feed(1));
            while t.state.inbox_tx.try_send(Work::Ingest(one.clone())).is_ok() {}
            assert_eq!(t.ingest(feed(1)).unwrap(), Admitted::Shed);
            shed = 1;
        }
        assert!(shed > 0);
        // The shed notice reaches the outbox.
        let saw_shed =
            std::iter::from_fn(|| rx.try_recv()).any(|o| matches!(o, Outbound::Shed { .. }));
        assert!(saw_shed, "Shed notice should be queued for the writer");
        core.shutdown();
    }

    #[test]
    fn stalled_reader_drops_are_counted_not_blocking() {
        let core = ServiceCore::new(ServeConfig {
            workers: 1,
            outbox_capacity: 1,
            ..ServeConfig::default()
        });
        let (t, rx) = core.register("stall", &header("toy")).unwrap();
        t.ingest(feed(2)).unwrap();
        // Nobody drains rx: after the first Revisions fills the outbox,
        // further ticks must complete anyway and count their drops.
        for i in 0..8 {
            t.tick(1.0 + i as f64).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while t.stalled_drops() < 7 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(t.stalled_drops() >= 7, "got {}", t.stalled_drops());
        drop(rx);
        core.shutdown();
    }
}
