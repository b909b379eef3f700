//! The durable online engine: a [`StreamIngestor`] + [`IncrementalAdvisor`]
//! pair whose every input is journaled before it is applied, checkpointed
//! periodically, and recoverable to the exact pre-crash state.
//!
//! ## Recovery invariant
//!
//! The engine's state is a pure function of its input sequence (events,
//! ticks, sheds). `open` restores the newest intact checkpoint and
//! replays the journal suffix past the checkpoint's cursor, so
//!
//! ```text
//! recover(checkpoint_k, journal[k..n]) == run(journal[0..n])
//! ```
//!
//! byte-for-byte — the differential tests in `tests/crash_recovery.rs`
//! prove the emitted [`PlacementRevision`] sequences identical across
//! crashes at arbitrary seeded offsets. The invariant holds because
//! appends happen *before* applies (a crash between the two replays the
//! record on recovery, reproducing the apply) and because the codec
//! preserves every `f64` bit (see [`super::codec`]).

use super::checkpoint::{CheckpointStore, LoadReport};
use super::codec;
use super::journal::{Journal, OpenReport, Record};
use crate::config::OnlineConfig;
use crate::incremental::{IncrementalAdvisor, PlacementRevision};
use crate::ingest::{StreamIngestor, StreamMeta};
use advisor::{AdvisorConfig, Algorithm};
use memtrace::wire::Reader;
use memtrace::{DegradationPolicy, DroppedWindow, EventBatch, TraceError, TraceEvent};
use std::path::{Path, PathBuf};

/// Durability tuning.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory; the journal lives in `wal/`, checkpoints in `ckpt/`.
    pub dir: PathBuf,
    /// Journal segment rotation threshold, bytes.
    pub segment_bytes: u64,
    /// Checkpoint every this many journal records (0 = only on `close`).
    pub checkpoint_every: u64,
    /// Checkpoints retained (older ones are pruned after each save).
    pub keep_checkpoints: usize,
}

impl DurabilityConfig {
    /// Defaults: 1 MiB segments, checkpoint every 256 records, keep 2.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            segment_bytes: super::journal::DEFAULT_SEGMENT_BYTES,
            checkpoint_every: 256,
            keep_checkpoints: 2,
        }
    }
}

/// What `open` recovered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Checkpoint served, if any.
    pub checkpoint_seq: Option<u64>,
    /// Corrupt checkpoints skipped.
    pub corrupt_checkpoints: u64,
    /// Journal records replayed past the checkpoint cursor.
    pub replayed_records: u64,
    /// Bytes truncated off a torn journal tail.
    pub torn_bytes: u64,
    /// Whether any prior state existed at all (fresh start when false).
    pub resumed: bool,
    /// Stream time the recovered state reached (`None` when the recovered
    /// ingestor has not accepted any event yet). Informational — resume
    /// cursors should use the counts below, since distinct events may
    /// legally share a timestamp.
    pub stream_time: Option<f64>,
    /// Events the recovered ingestor had admitted. A producer re-feeding
    /// a recorded stream should skip exactly `events_seen + shed_events`
    /// events (both were consumed from the stream before the crash).
    pub events_seen: u64,
    /// Events recorded as shed by overload control before the crash —
    /// consumed from the producer's stream but never ingested.
    pub shed_events: u64,
}

/// The crash-safe ingest/advise engine.
#[derive(Debug)]
pub struct DurableEngine {
    cfg: DurabilityConfig,
    journal: Journal,
    store: CheckpointStore,
    ingestor: StreamIngestor,
    advisor: IncrementalAdvisor,
    revisions: Vec<PlacementRevision>,
    shed_events: u64,
    shed_window: DroppedWindow,
    /// Journal records applied to the in-memory state.
    applied: u64,
    /// `applied` as of the last checkpoint.
    checkpointed_at: u64,
    next_seq: u64,
}

impl DurableEngine {
    /// Opens the engine: recovers from `cfg.dir` when prior state exists,
    /// otherwise starts fresh from the given stream header and configs.
    /// The caller-provided configs describe a *fresh* engine; on resume,
    /// the checkpointed configuration wins (it is part of the state).
    pub fn open(
        cfg: DurabilityConfig,
        meta: StreamMeta,
        policy: DegradationPolicy,
        online_cfg: OnlineConfig,
        advisor_cfg: AdvisorConfig,
        algorithm: Algorithm,
    ) -> Result<(DurableEngine, RecoveryReport), TraceError> {
        let store = CheckpointStore::open(cfg.dir.join("ckpt"))?;
        let (payload, load): (Option<Vec<u8>>, LoadReport) = store.load_latest()?;
        let (journal, jreport): (Journal, OpenReport) =
            Journal::open(cfg.dir.join("wal"), cfg.segment_bytes)?;

        let mut report = RecoveryReport {
            checkpoint_seq: load.seq,
            corrupt_checkpoints: load.corrupt_skipped,
            torn_bytes: jreport.torn_bytes,
            ..RecoveryReport::default()
        };

        let (ingestor, advisor, revisions, shed_events, shed_window, applied, next_seq) =
            match payload {
                Some(data) => {
                    let mut r = Reader::new(&data);
                    let applied = r.varint()?;
                    let shed_events = r.varint()?;
                    let shed_window = codec::decode_window(&mut r)?;
                    let ingestor = codec::decode_ingestor(&mut r)?;
                    let advisor = codec::decode_advisor(&mut r)?;
                    let revisions = codec::decode_revisions(&mut r)?;
                    r.expect_end(|_, _| "checkpoint payload has trailing bytes".into())?;
                    report.resumed = true;
                    let seq = load.seq.map_or(0, |s| s + 1);
                    (ingestor, advisor, revisions, shed_events, shed_window, applied, seq)
                }
                None => {
                    report.resumed = journal.next_index() > 0;
                    let ingestor = StreamIngestor::new(meta, policy, online_cfg);
                    let advisor = IncrementalAdvisor::new(advisor_cfg, algorithm)
                        .with_hysteresis(ingestor.cfg.hysteresis);
                    (ingestor, advisor, Vec::new(), 0, DroppedWindow::default(), 0, 0)
                }
            };

        let mut engine = DurableEngine {
            cfg,
            journal,
            store,
            ingestor,
            advisor,
            revisions,
            shed_events,
            shed_window,
            applied,
            checkpointed_at: applied,
            next_seq,
        };

        // Replay the journal suffix the checkpoint does not cover.
        let mut replayed = 0u64;
        let mut pending: Vec<(u64, Record)> = Vec::new();
        engine.journal.replay_from(engine.applied, |i, r| {
            pending.push((i, r));
            Ok(())
        })?;
        for (i, rec) in pending {
            // A gap here (a pruned or manually removed segment, a broken
            // chain) would apply records at the wrong cursor and silently
            // diverge from the uninterrupted run — refuse to recover.
            if i != engine.applied {
                return Err(TraceError::Malformed(format!(
                    "journal gap during recovery: expected record {}, found {}",
                    engine.applied, i
                )));
            }
            engine.apply(&rec)?;
            replayed += 1;
        }
        report.replayed_records = replayed;
        let now = engine.ingestor.now();
        report.stream_time = now.is_finite().then_some(now);
        report.events_seen = engine.events_seen();
        report.shed_events = engine.shed_events;
        Ok((engine, report))
    }

    /// Applies a record to the in-memory state (shared by the live path
    /// and recovery replay).
    fn apply(&mut self, rec: &Record) -> Result<(), TraceError> {
        match rec {
            Record::Events(events) => {
                self.ingestor.push_batch(events)?;
            }
            Record::Tick { now } => {
                let revs = self.advisor.tick(&mut self.ingestor, *now);
                self.revisions.extend(revs);
            }
            Record::Shed { window } => {
                self.shed_events += window.count;
                self.shed_window.merge(window);
            }
        }
        self.applied += 1;
        Ok(())
    }

    /// Journals a record, applies it, and checkpoints when due. This is
    /// the only mutation path — write-ahead ordering is structural.
    fn commit(&mut self, rec: Record) -> Result<(), TraceError> {
        self.journal.append(&rec)?;
        self.apply(&rec)?;
        if self.cfg.checkpoint_every > 0
            && self.applied - self.checkpointed_at >= self.cfg.checkpoint_every
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Admits a frame of events (journal-first). Under `Strict`, the
    /// malformation error surfaces after the journal append — recovery
    /// replays the same frame and fails identically, preserving the
    /// invariant.
    pub fn ingest(&mut self, events: Vec<TraceEvent>) -> Result<(), TraceError> {
        self.ingest_batch(EventBatch::from_events(&events))
    }

    /// [`Self::ingest`] for a columnar batch: journaled with the same
    /// bytes, applied without rebuilding any event.
    pub fn ingest_batch(&mut self, events: EventBatch) -> Result<(), TraceError> {
        if events.is_empty() {
            return Ok(());
        }
        self.commit(Record::Events(events))
    }

    /// Runs one epoch tick at stream time `now`; the emitted revisions
    /// are appended to the engine's revision log.
    pub fn tick(&mut self, now: f64) -> Result<&[PlacementRevision], TraceError> {
        let before = self.revisions.len();
        self.commit(Record::Tick { now })?;
        Ok(&self.revisions[before..])
    }

    /// Records an explicit load-shedding decision (the supervisor calls
    /// this when deadline-aware admission drops a batch; the obs counter
    /// is incremented at the shed decision point, this only journals it).
    pub fn note_shed(&mut self, window: DroppedWindow) -> Result<(), TraceError> {
        self.commit(Record::Shed { window })
    }

    /// Takes a checkpoint now: encode state, fsync the journal, publish
    /// atomically, prune covered journal segments and old checkpoints.
    pub fn checkpoint(&mut self) -> Result<(), TraceError> {
        let _span = ecohmem_obs::span("online.checkpoint");
        let mut payload = Vec::new();
        codec::put_u64(&mut payload, self.applied);
        codec::put_u64(&mut payload, self.shed_events);
        codec::encode_window(&mut payload, &self.shed_window);
        codec::encode_ingestor(&self.ingestor, &mut payload);
        codec::encode_advisor(&self.advisor, &mut payload);
        codec::encode_revisions(&self.revisions, &mut payload);
        self.journal.sync()?;
        self.store.save(self.next_seq, self.applied, &payload)?;
        self.next_seq += 1;
        self.checkpointed_at = self.applied;
        self.store.prune(self.cfg.keep_checkpoints.max(1))?;
        // Prune only below the *oldest retained* checkpoint's cursor, not
        // the newest: if the newest checkpoint later fails its CRC,
        // recovery falls back to an older one and must still find every
        // journal record past that older cursor.
        let keep_from = self.store.min_retained_cursor()?.unwrap_or(self.applied);
        self.journal.prune_below(keep_from.min(self.applied))?;
        ecohmem_obs::incr("online.checkpoints.taken");
        Ok(())
    }

    /// Flushes and checkpoints for a clean shutdown, returning the final
    /// revision log.
    pub fn close(mut self) -> Result<Vec<PlacementRevision>, TraceError> {
        self.checkpoint()?;
        Ok(self.revisions)
    }

    /// The full revision log (checkpoint-restored prefix + live suffix).
    pub fn revisions(&self) -> &[PlacementRevision] {
        &self.revisions
    }

    /// The underlying ingestor.
    pub fn ingestor(&self) -> &StreamIngestor {
        &self.ingestor
    }

    /// The underlying advisor.
    pub fn advisor(&self) -> &IncrementalAdvisor {
        &self.advisor
    }

    /// Journal records applied to the current state.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Events admitted by the ingestor (for producer resume cursors).
    pub fn events_seen(&self) -> u64 {
        self.ingestor.events_seen()
    }

    /// Total events dropped by overload shedding, with their time window.
    pub fn shed(&self) -> (u64, DroppedWindow) {
        (self.shed_events, self.shed_window)
    }

    /// The durability root directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{BinaryMap, CallStack, Frame, ModuleId, ObjectId, SiteId};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ecohmem-engine-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn meta() -> StreamMeta {
        StreamMeta {
            app_name: "engine-test".into(),
            sampling_hz: 100.0,
            load_sample_period: 10.0,
            store_sample_period: 5.0,
            stacks: std::sync::Arc::new(vec![
                (SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x10)])),
                (SiteId(1), CallStack::new(vec![Frame::new(ModuleId(0), 0x20)])),
            ]),
            binmap: std::sync::Arc::new(BinaryMap::default()),
        }
    }

    fn open(dir: &Path, every: u64) -> (DurableEngine, RecoveryReport) {
        let cfg = DurabilityConfig { checkpoint_every: every, ..DurabilityConfig::new(dir) };
        DurableEngine::open(
            cfg,
            meta(),
            DegradationPolicy::Strict,
            OnlineConfig::default(),
            AdvisorConfig::loads_only(12),
            Algorithm::Base,
        )
        .unwrap()
    }

    fn alloc(t: f64, id: u64, site: u32, size: u64, addr: u64) -> TraceEvent {
        TraceEvent::Alloc { time: t, object: ObjectId(id), site: SiteId(site), size, address: addr }
    }

    fn load(t: f64, addr: u64) -> TraceEvent {
        TraceEvent::LoadMissSample {
            time: t,
            address: addr,
            latency_cycles: 250.0,
            function: memtrace::FuncId(0),
        }
    }

    #[test]
    fn fresh_open_then_resume_reproduces_state() {
        let dir = tmpdir("resume");
        let (mut e, r) = open(&dir, 0);
        assert!(!r.resumed);
        e.ingest(vec![alloc(0.0, 1, 0, 1 << 30, 0x1000), load(0.5, 0x1100)]).unwrap();
        e.tick(1.0).unwrap();
        e.ingest(vec![alloc(1.5, 2, 1, 1 << 20, 0x9000)]).unwrap();
        let snapshot = e.ingestor().snapshot(2.0);
        let revisions = e.revisions().to_vec();
        let applied = e.applied();
        drop(e); // crash: no close(), no checkpoint taken (every = 0)

        let (e2, r2) = open(&dir, 0);
        assert!(r2.resumed);
        assert_eq!(r2.checkpoint_seq, None, "recovered purely from the journal");
        assert_eq!(r2.replayed_records, applied);
        assert_eq!(e2.applied(), applied);
        assert_eq!(e2.ingestor().snapshot(2.0), snapshot);
        assert_eq!(e2.revisions(), &revisions[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_shortens_replay_without_changing_state() {
        let dir = tmpdir("ckpt");
        let (mut e, _) = open(&dir, 2); // checkpoint every 2 records
        for i in 0..6u64 {
            e.ingest(vec![alloc(i as f64, i + 1, (i % 2) as u32, 4096, 0x1000 + i * 0x1000)])
                .unwrap();
        }
        e.tick(6.0).unwrap();
        let snapshot = e.ingestor().snapshot(7.0);
        let revisions = e.revisions().to_vec();
        drop(e);

        let (e2, r2) = open(&dir, 2);
        assert!(r2.checkpoint_seq.is_some(), "a checkpoint was published");
        assert!(
            r2.replayed_records < 7,
            "replay covers only the suffix, got {}",
            r2.replayed_records
        );
        assert_eq!(e2.ingestor().snapshot(7.0), snapshot);
        assert_eq!(e2.revisions(), &revisions[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_without_a_journal_gap() {
        let dir = tmpdir("ckpt-fallback");
        // Tiny segments force rotation nearly every record, so checkpoint
        // pruning actually removes journal segments; keep_checkpoints=2
        // means the fallback checkpoint must still find its replay suffix.
        let cfg = DurabilityConfig {
            checkpoint_every: 2,
            segment_bytes: 64,
            ..DurabilityConfig::new(&dir)
        };
        let open_cfg = |cfg: DurabilityConfig| {
            DurableEngine::open(
                cfg,
                meta(),
                DegradationPolicy::Strict,
                OnlineConfig::default(),
                AdvisorConfig::loads_only(12),
                Algorithm::Base,
            )
            .unwrap()
        };
        let (mut e, _) = open_cfg(cfg.clone());
        for i in 0..9u64 {
            e.ingest(vec![alloc(i as f64, i + 1, (i % 2) as u32, 4096, 0x1000 + i * 0x1000)])
                .unwrap();
        }
        e.tick(9.0).unwrap();
        let snapshot = e.ingestor().snapshot(10.0);
        let revisions = e.revisions().to_vec();
        drop(e); // crash after several checkpoints + journal prunes

        // Corrupt the newest checkpoint's payload: recovery must degrade
        // to the previous checkpoint and replay the longer journal suffix.
        let mut ckpts: Vec<_> = fs::read_dir(dir.join("ckpt"))
            .unwrap()
            .map(|f| f.unwrap().path())
            .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("ck"))
            .collect();
        ckpts.sort();
        assert!(ckpts.len() >= 2, "two checkpoints retained, got {}", ckpts.len());
        let newest = ckpts.last().unwrap();
        let mut data = fs::read(newest).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xff;
        fs::write(newest, &data).unwrap();

        let (e2, r2) = open_cfg(cfg);
        assert_eq!(r2.corrupt_checkpoints, 1);
        assert_eq!(e2.ingestor().snapshot(10.0), snapshot);
        assert_eq!(e2.revisions(), &revisions[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shed_records_survive_recovery() {
        let dir = tmpdir("shed");
        let (mut e, _) = open(&dir, 0);
        let mut w = DroppedWindow::default();
        w.note(1.25);
        w.note(2.5);
        e.note_shed(w).unwrap();
        drop(e);
        let (e2, _) = open(&dir, 0);
        let (count, window) = e2.shed();
        assert_eq!(count, 2);
        assert_eq!(window.first_time, Some(1.25));
        assert_eq!(window.last_time, Some(2.5));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn close_checkpoints_and_reopen_replays_nothing() {
        let dir = tmpdir("close");
        let (mut e, _) = open(&dir, 0);
        e.ingest(vec![alloc(0.0, 1, 0, 1 << 20, 0x1000)]).unwrap();
        e.tick(1.0).unwrap();
        let revs = e.close().unwrap();
        let (e2, r2) = open(&dir, 0);
        assert_eq!(r2.replayed_records, 0, "clean shutdown: checkpoint covers everything");
        assert_eq!(e2.revisions(), &revs[..]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
