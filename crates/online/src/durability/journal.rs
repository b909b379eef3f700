//! The write-ahead journal: an append-only, CRC-checked record log with
//! segment rotation and torn-tail recovery.
//!
//! Every state mutation of the durable engine is journaled *before* it is
//! applied, so after any crash the state equals `last checkpoint + replay
//! of the journal suffix`. Three record kinds cover the engine's whole
//! input alphabet:
//!
//! * `Events` — a frame of trace events in the bit-exact
//!   [`memtrace::binfmt`] frame codec (timestamps travel as `f64` bits);
//! * `Tick` — an epoch tick at stream time `now`, so replay reproduces
//!   the advisor's revision sequence, not just the ingested profile;
//! * `Shed` — an explicit load-shedding decision (count + time window),
//!   so dropped-by-overload events are auditable after recovery too.
//!
//! ## On-disk format
//!
//! A journal is a directory of segments named `wal-{base:016x}.seg`,
//! where `base` is the index of the segment's first record. Each segment
//! starts with a 20-byte header (`magic || version || base`) followed by
//! records framed as `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! On open, every segment is scanned; the first record that fails its
//! length or CRC check, or does not decode, marks a torn tail — the file
//! is truncated there and any later segments (unreachable past the tear)
//! are deleted. A `kill -9` mid-append therefore costs at most the record
//! being written. Replay walks the same frames and decodes only the
//! records past its cursor.

use super::codec;
use memtrace::binfmt::{crc32, read_frame, write_frame};
use memtrace::wire::Reader;
use memtrace::{DroppedWindow, EventBatch, TraceError};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const SEG_MAGIC: &[u8; 8] = b"ECOHWAL\0";
const SEG_VERSION: u32 = 1;
const SEG_HEADER: u64 = 8 + 4 + 8;
/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

const REC_EVENTS: u8 = 1;
const REC_TICK: u8 = 2;
const REC_SHED: u8 = 3;

/// One journaled input to the durable engine.
// Event frames are most of the records; boxing the batch would only add
// an allocation per record.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A frame of admitted trace events.
    Events(EventBatch),
    /// An epoch tick at stream time `now`.
    Tick {
        /// Stream time passed to the advisor.
        now: f64,
    },
    /// Events dropped by overload control (never silently).
    Shed {
        /// The dropped events' count and time window.
        window: DroppedWindow,
    },
}

impl Record {
    /// The record's payload: the bytes a journal frame length-prefixes and
    /// CRC-guards.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Record::Events(events) => {
                out.push(REC_EVENTS);
                write_frame(events, &mut out);
            }
            Record::Tick { now } => {
                out.push(REC_TICK);
                codec::put_f64(&mut out, *now);
            }
            Record::Shed { window } => {
                out.push(REC_SHED);
                codec::encode_window(&mut out, window);
            }
        }
        out
    }

    /// Decodes a payload written by [`Record::encode`].
    pub fn decode(payload: &[u8]) -> Result<Record, TraceError> {
        let mut r = Reader::new(payload);
        let tag: u8 = r.field("journal record tag")?;
        let rec = match tag {
            REC_EVENTS => Record::Events(read_frame(&mut r)?),
            REC_TICK => Record::Tick { now: r.f64_bits()? },
            REC_SHED => Record::Shed { window: codec::decode_window(&mut r)? },
            _ => {
                return Err(TraceError::Malformed(format!("unknown journal record tag {tag}")));
            }
        };
        r.expect_end(|_, _| "journal record has trailing bytes".into())?;
        Ok(rec)
    }
}

/// What [`Journal::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Valid records across all segments.
    pub records: u64,
    /// Segments kept after recovery.
    pub segments: usize,
    /// Bytes cut off a torn tail (0 on a clean shutdown).
    pub torn_bytes: u64,
    /// Whole segments discarded because they sat past a tear.
    pub dropped_segments: usize,
}

/// An open journal, positioned to append.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    segment_bytes: u64,
    file: File,
    seg_len: u64,
    /// Index the next appended record will get.
    next_index: u64,
}

fn seg_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("wal-{base:016x}.seg"))
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, TraceError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some(hex) = name.strip_prefix("wal-").and_then(|n| n.strip_suffix(".seg")) {
            if let Ok(base) = u64::from_str_radix(hex, 16) {
                segs.push((base, path));
            }
        }
    }
    segs.sort();
    Ok(segs)
}

/// Reads one segment and checks its header. Errors only on I/O or a bad
/// header.
fn read_segment(path: &Path, expect_base: u64) -> Result<Vec<u8>, TraceError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    if data.len() < SEG_HEADER as usize
        || &data[..8] != SEG_MAGIC
        || u32::from_le_bytes(data[8..12].try_into().unwrap()) != SEG_VERSION
    {
        return Err(TraceError::Malformed(format!("bad journal segment header in {path:?}")));
    }
    let base = u64::from_le_bytes(data[12..20].try_into().unwrap());
    if base != expect_base {
        return Err(TraceError::Malformed(format!(
            "journal segment {path:?} claims base {base}, expected {expect_base}"
        )));
    }
    Ok(data)
}

/// The record frames of a segment, in order: yields each payload whose
/// frame fits in the file and whose CRC matches, and stops at the first
/// that does not (a torn or corrupted tail). Decodes nothing.
struct Frames<'a> {
    data: &'a [u8],
    /// Offset of the next frame: after the walk, the clean prefix.
    off: usize,
}

impl<'a> Frames<'a> {
    fn new(segment: &'a [u8]) -> Frames<'a> {
        Frames { data: segment, off: SEG_HEADER as usize }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let frame = &self.data[self.off..];
        let word = |at: usize| Some(u32::from_le_bytes(frame.get(at..at + 4)?.try_into().ok()?));
        let (len, crc) = (word(0)? as usize, word(4)?);
        let payload = frame[8..].get(..len)?;
        if crc32(payload) != crc {
            return None;
        }
        self.off += 8 + len;
        Some(payload)
    }
}

impl Journal {
    /// Opens (or creates) the journal in `dir`, repairing any torn tail.
    pub fn open(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
    ) -> Result<(Journal, OpenReport), TraceError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segs = list_segments(&dir)?;
        let mut report = OpenReport::default();
        let mut next_index = 0u64;
        let mut tail: Option<(PathBuf, u64)> = None;

        let mut expect_base = None;
        for (i, (base, path)) in segs.iter().enumerate() {
            if let Some(eb) = expect_base {
                if *base != eb {
                    return Err(TraceError::Malformed(format!(
                        "journal segment chain broken: expected base {eb}, found {base}"
                    )));
                }
            }
            let data = read_segment(path, *base)?;
            // A CRC-valid record that does not decode is cut like a torn
            // one: replay must never meet a record it cannot apply.
            let mut frames = Frames::new(&data);
            let (mut records, mut clean) = (0u64, frames.off as u64);
            while let Some(payload) = frames.next() {
                if Record::decode(payload).is_err() {
                    break;
                }
                records += 1;
                clean = frames.off as u64;
            }
            let torn = data.len() as u64 - clean;
            if torn > 0 {
                // Truncate the tear; everything after it (including whole
                // later segments) never happened.
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(clean)?;
                f.sync_all()?;
                report.torn_bytes += torn;
                for (_, later) in &segs[i + 1..] {
                    fs::remove_file(later)?;
                    report.dropped_segments += 1;
                }
                report.records += records;
                report.segments = i + 1;
                next_index = base + records;
                tail = Some((path.clone(), clean));
                break;
            }
            report.records += records;
            report.segments = i + 1;
            next_index = base + records;
            tail = Some((path.clone(), clean));
            expect_base = Some(base + records);
        }

        let (file, seg_len) = match tail {
            Some((path, len)) => {
                let mut f = OpenOptions::new().append(true).open(&path)?;
                f.seek(SeekFrom::End(0))?;
                (f, len)
            }
            None => {
                let path = seg_path(&dir, 0);
                let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
                f.write_all(SEG_MAGIC)?;
                f.write_all(&SEG_VERSION.to_le_bytes())?;
                f.write_all(&0u64.to_le_bytes())?;
                report.segments = 1;
                (f, SEG_HEADER)
            }
        };
        Ok((Journal { dir, segment_bytes, file, seg_len, next_index }, report))
    }

    /// Index the next appended record will get.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Appends a record, rotating segments at the size threshold. Returns
    /// the record's index.
    pub fn append(&mut self, rec: &Record) -> Result<u64, TraceError> {
        if self.seg_len >= self.segment_bytes {
            self.rotate()?;
        }
        let payload = rec.encode();
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        self.file.write_all(&framed)?;
        self.seg_len += framed.len() as u64;
        let index = self.next_index;
        self.next_index += 1;
        Ok(index)
    }

    fn rotate(&mut self) -> Result<(), TraceError> {
        self.file.sync_all()?;
        let path = seg_path(&self.dir, self.next_index);
        let mut f = OpenOptions::new().create_new(true).append(true).open(&path)?;
        f.write_all(SEG_MAGIC)?;
        f.write_all(&SEG_VERSION.to_le_bytes())?;
        f.write_all(&self.next_index.to_le_bytes())?;
        self.file = f;
        self.seg_len = SEG_HEADER;
        Ok(())
    }

    /// Flushes appended records to the OS.
    pub fn sync(&mut self) -> Result<(), TraceError> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Replays every valid record with index ≥ `from`, in order. Only
    /// those records are decoded; a segment that ends below `from` is not
    /// read at all.
    pub fn replay_from(
        &self,
        from: u64,
        mut f: impl FnMut(u64, Record) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        let segs = list_segments(&self.dir)?;
        for (k, (base, path)) in segs.iter().enumerate() {
            let end = segs.get(k + 1).map_or(self.next_index, |(next, _)| *next);
            if end <= from || *base >= self.next_index {
                continue;
            }
            let data = read_segment(path, *base)?;
            for (index, payload) in (*base..end).zip(Frames::new(&data)) {
                if index >= from {
                    f(index, Record::decode(payload)?)?;
                }
            }
        }
        Ok(())
    }

    /// Drops whole segments that only contain records below `index`
    /// (called after a checkpoint covers them). The active tail segment is
    /// always kept.
    pub fn prune_below(&mut self, index: u64) -> Result<usize, TraceError> {
        let segs = list_segments(&self.dir)?;
        let mut removed = 0;
        for w in segs.windows(2) {
            let (base, ref path) = w[0];
            let (next_base, _) = w[1];
            // Records [base, next_base) live here; prune only if all are
            // covered by the checkpoint at `index`.
            if next_base <= index && base < next_base {
                fs::remove_file(path)?;
                removed += 1;
            } else {
                break;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{ObjectId, SiteId, TraceEvent};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ecohmem-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn ev(t: f64, id: u64) -> TraceEvent {
        TraceEvent::Alloc {
            time: t,
            object: ObjectId(id),
            site: SiteId(0),
            size: 64,
            address: 0x1000 + id * 64,
        }
    }

    fn collect(j: &Journal, from: u64) -> Vec<(u64, Record)> {
        let mut out = Vec::new();
        j.replay_from(from, |i, r| {
            out.push((i, r));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn appends_survive_reopen() {
        let dir = tmpdir("reopen");
        let recs = vec![
            Record::Events(EventBatch::from_events(&[ev(0.1, 1), ev(0.2, 2)])),
            Record::Tick { now: 1.0 / 3.0 },
            Record::Shed {
                window: DroppedWindow { count: 3, first_time: Some(0.5), last_time: Some(0.9) },
            },
        ];
        {
            let (mut j, r) = Journal::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            assert_eq!(r.records, 0);
            for rec in &recs {
                j.append(rec).unwrap();
            }
            j.sync().unwrap();
        }
        let (j, r) = Journal::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(r.records, 3);
        assert_eq!(r.torn_bytes, 0);
        assert_eq!(j.next_index(), 3);
        let replayed = collect(&j, 0);
        assert_eq!(replayed.len(), 3);
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(&replayed[i].1, rec);
        }
        assert_eq!(collect(&j, 2).len(), 1, "suffix replay starts at the cursor");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tag_too_wide_for_a_byte_is_refused() {
        // Tag 257 once narrowed to 1, an Events record.
        let mut payload = Vec::new();
        memtrace::binfmt::put_varint(&mut payload, 257);
        write_frame(&EventBatch::from_events(&[ev(0.1, 1)]), &mut payload);
        let err = Record::decode(&payload).unwrap_err().to_string();
        assert!(err.contains("journal record tag 257 out of range"), "{err}");
        payload.splice(..2, [REC_EVENTS]);
        assert!(matches!(Record::decode(&payload), Ok(Record::Events(_))));
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let dir = tmpdir("torn");
        {
            let (mut j, _) = Journal::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            for i in 0..5 {
                j.append(&Record::Events(EventBatch::from_events(&[ev(i as f64, i)]))).unwrap();
            }
            j.sync().unwrap();
        }
        let seg = seg_path(&dir, 0);
        let full = fs::read(&seg).unwrap();
        // Chop the file at every byte offset: open() must always recover
        // the longest valid prefix without erroring.
        let mut recovered = Vec::new();
        for cut in (SEG_HEADER as usize..=full.len()).rev() {
            fs::write(&seg, &full[..cut]).unwrap();
            let (j, r) = Journal::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            assert_eq!(j.next_index(), r.records);
            recovered.push(r.records);
            drop(j);
        }
        assert_eq!(recovered.first(), Some(&5));
        assert_eq!(recovered.last(), Some(&0));
        assert!(recovered.windows(2).all(|w| w[0] >= w[1]), "prefix length is monotone");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_cuts_the_suffix() {
        let dir = tmpdir("corrupt");
        {
            let (mut j, _) = Journal::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            for i in 0..4 {
                j.append(&Record::Tick { now: i as f64 }).unwrap();
            }
            j.sync().unwrap();
        }
        let seg = seg_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        // Flip one payload byte of the third record.
        let rec_len = (data.len() - SEG_HEADER as usize) / 4;
        let off = SEG_HEADER as usize + 2 * rec_len + 8;
        data[off] ^= 0xff;
        fs::write(&seg, &data).unwrap();
        let (_, r) = Journal::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(r.records, 2, "the corrupted record and everything after it are gone");
        assert!(r.torn_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crc_valid_record_that_does_not_decode_is_cut_as_a_torn_tail() {
        let dir = tmpdir("undecodable");
        {
            let (mut j, _) = Journal::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            for i in 0..3 {
                j.append(&Record::Tick { now: i as f64 }).unwrap();
            }
            j.sync().unwrap();
        }
        // A well-framed record with a matching CRC and an unknown tag,
        // then a valid record the tear makes unreachable.
        let seg = seg_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        let clean = data.len() as u64;
        for payload in [vec![0x7e, 1, 2, 3], Record::Tick { now: 9.0 }.encode()] {
            data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            data.extend_from_slice(&crc32(&payload).to_le_bytes());
            data.extend_from_slice(&payload);
        }
        assert!(Record::decode(&[0x7e, 1, 2, 3]).is_err());
        fs::write(&seg, &data).unwrap();

        let (mut j, r) = Journal::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(r.records, 3);
        assert_eq!(r.torn_bytes, data.len() as u64 - clean);
        assert_eq!(fs::metadata(&seg).unwrap().len(), clean, "the file is cut at the record");
        assert_eq!(j.append(&Record::Tick { now: 3.0 }).unwrap(), 3);
        let replayed: Vec<Record> = collect(&j, 0).into_iter().map(|(_, r)| r).collect();
        let want: Vec<Record> = (0..4).map(|i| Record::Tick { now: i as f64 }).collect();
        assert_eq!(replayed, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_chains_segments_and_prunes_below_checkpoints() {
        let dir = tmpdir("rotate");
        let (mut j, _) = Journal::open(&dir, 64).unwrap(); // rotate ~every record
        for i in 0..10 {
            j.append(&Record::Tick { now: i as f64 }).unwrap();
        }
        j.sync().unwrap();
        assert!(list_segments(&dir).unwrap().len() > 1);
        let all = collect(&j, 0);
        assert_eq!(all.len(), 10);
        assert_eq!(all.iter().map(|(i, _)| *i).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());

        let removed = j.prune_below(7).unwrap();
        assert!(removed > 0);
        // Pruning must not lose anything at or above the cursor.
        let suffix = collect(&j, 7);
        assert_eq!(suffix.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![7, 8, 9]);

        // Reopen after pruning: the chain now starts at a non-zero base.
        drop(j);
        let (j, r) = Journal::open(&dir, 64).unwrap();
        assert_eq!(j.next_index(), 10);
        assert!(r.records <= 10);
        fs::remove_dir_all(&dir).unwrap();
    }
}
