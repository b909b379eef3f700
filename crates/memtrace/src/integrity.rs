//! The trace-integrity rules, written once.
//!
//! Paramedir has to reject (strict) or repair (lenient) a damaged trace
//! before aggregation, and the streaming ingestor has to apply the same
//! rules to a live event stream. Every consumer runs one [`Validator`]
//! over its events in order:
//!
//! * timestamps are finite and non-decreasing;
//! * every allocation names a site in the site table, has a nonzero size
//!   and an id that is not currently live (re-allocating a freed id is
//!   legal);
//! * every free releases a live object; freeing it again is a double
//!   free, freeing an id never seen is an orphan free.
//!
//! Under [`DegradationPolicy::Strict`], [`Validator::offer`] turns the
//! first violation into the [`TraceError`] `validate` reports; under the
//! lenient policies it drops the event instead, tallying it per
//! [`WarningKind`] and widening the [`DroppedWindow`]. A rejected event leaves the state untouched, so a
//! lenient pass accepts exactly the events a strict pass over its output
//! would accept.

use crate::callstack::CallStack;
use crate::columns::{BatchOp, EventBatch, OpKind};
use crate::error::TraceError;
use crate::events::TraceEvent;
use crate::ids::{ObjectId, SiteId};
use crate::warn::{DegradationPolicy, DroppedWindow, Warning, WarningKind};
use std::collections::HashSet;

/// The fields of one event the rules look at, besides its timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// An allocation.
    Alloc {
        /// The allocated object.
        object: ObjectId,
        /// Its allocation site.
        site: SiteId,
        /// Its size in bytes.
        size: u64,
    },
    /// A free.
    Free {
        /// The freed object.
        object: ObjectId,
    },
    /// A sample or phase marker: only its timestamp is checked.
    Other,
}

impl Shape {
    /// The shape of an AoS event.
    #[inline]
    pub fn of_event(e: &TraceEvent) -> Shape {
        match *e {
            TraceEvent::Alloc { object, site, size, .. } => Shape::Alloc { object, site, size },
            TraceEvent::Free { object, .. } => Shape::Free { object },
            _ => Shape::Other,
        }
    }

    /// The shape of one op of a columnar batch.
    #[inline]
    pub fn of_op(b: &EventBatch, op: BatchOp) -> Shape {
        let r = op.row();
        match op.kind() {
            OpKind::Alloc => Shape::Alloc {
                object: b.alloc_objects[r],
                site: b.alloc_sites[r],
                size: b.alloc_sizes[r],
            },
            OpKind::Free => Shape::Free { object: b.free_objects[r] },
            OpKind::Load | OpKind::Store | OpKind::Phase => Shape::Other,
        }
    }
}

/// The validation state machine: known sites, live and freed object ids,
/// the last accepted time, and the lenient policies' drop accounting.
///
/// The fields are public so the streaming ingestor's checkpoint codec can
/// save and restore them; `known_sites` is always derived from the site
/// table.
#[derive(Debug, Clone)]
pub struct Validator {
    /// Sites of the site table.
    pub known_sites: HashSet<SiteId>,
    /// Objects allocated and not yet freed.
    pub live: HashSet<ObjectId>,
    /// Objects freed and not re-allocated since.
    pub freed: HashSet<ObjectId>,
    /// Timestamp of the last accepted event (`-inf` before the first).
    pub last_t: f64,
    /// Events checked so far, accepted or not; the next event's index.
    pub seen: u64,
    /// Events the lenient policies dropped.
    pub dropped: u64,
    /// `(kind, count, index of the first)` per kind of drop, in order of
    /// first occurrence.
    pub tallies: Vec<(WarningKind, u64, u64)>,
    /// The time window the dropped events covered.
    pub window: DroppedWindow,
}

impl Validator {
    /// A validator for a trace with this site table.
    pub fn new(stacks: &[(SiteId, CallStack)]) -> Validator {
        Validator {
            known_sites: stacks.iter().map(|(s, _)| *s).collect(),
            live: HashSet::new(),
            freed: HashSet::new(),
            last_t: f64::NEG_INFINITY,
            seen: 0,
            dropped: 0,
            tallies: Vec::new(),
            window: DroppedWindow::default(),
        }
    }

    /// The rule check: accepts the event (updating the state) or names
    /// the rule it breaks (leaving the state as it was). Counts the event
    /// as seen either way. Small enough to inline into every caller's
    /// loop: samples and phase markers ([`Shape::Other`]) keep only the
    /// time rule, and the object rules sit out of line.
    #[inline]
    fn check(&mut self, t: f64, shape: Shape) -> Result<(), WarningKind> {
        self.seen += 1;
        if !t.is_finite() {
            return Err(WarningKind::NonFiniteTime);
        }
        if t < self.last_t {
            return Err(WarningKind::OutOfOrderEvent);
        }
        if !matches!(shape, Shape::Other) {
            self.check_object(shape)?;
        }
        self.last_t = t;
        Ok(())
    }

    /// [`Self::check`]'s rules for allocations and frees.
    #[inline(never)]
    fn check_object(&mut self, shape: Shape) -> Result<(), WarningKind> {
        match shape {
            Shape::Alloc { object, site, size } => {
                if !self.known_sites.contains(&site) {
                    return Err(WarningKind::UnknownSite);
                }
                if size == 0 {
                    return Err(WarningKind::ZeroSizeAlloc);
                }
                if !self.live.insert(object) {
                    return Err(WarningKind::DuplicateAlloc);
                }
                self.freed.remove(&object);
            }
            Shape::Free { object } => {
                if !self.live.remove(&object) {
                    return Err(if self.freed.contains(&object) {
                        WarningKind::DoubleFree
                    } else {
                        WarningKind::OrphanFree
                    });
                }
                self.freed.insert(object);
            }
            Shape::Other => {}
        }
        Ok(())
    }

    /// Checks the next op of a batch, whose timestamp `t` the caller has
    /// already read, under `policy` like [`Self::offer`]. Samples and
    /// phase markers are checked as [`Shape::Other`] without reading any
    /// of their columns: their only rule is the time rule.
    #[inline]
    pub fn offer_op(
        &mut self,
        policy: DegradationPolicy,
        b: &EventBatch,
        op: BatchOp,
        t: f64,
    ) -> Result<bool, TraceError> {
        let shape = if op.is_timed_only() { Shape::Other } else { Shape::of_op(b, op) };
        self.offer(policy, t, shape)
    }

    /// Checks the next event, failing with the error strict validation
    /// reports for the first violation.
    #[inline]
    pub(crate) fn strict(&mut self, t: f64, shape: Shape) -> Result<(), TraceError> {
        self.check(t, shape).map_err(|kind| self.error(kind, t, shape))
    }

    /// Checks the next event, dropping it on a violation: returns whether
    /// the event was accepted.
    #[inline]
    pub(crate) fn lenient(&mut self, t: f64, shape: Shape) -> bool {
        match self.check(t, shape) {
            Ok(()) => true,
            Err(kind) => {
                self.note_drop(kind, t);
                false
            }
        }
    }

    /// The lenient policies' accounting for one dropped event.
    #[cold]
    fn note_drop(&mut self, kind: WarningKind, t: f64) {
        self.dropped += 1;
        self.window.note(t);
        let index = self.seen - 1;
        match self.tallies.iter_mut().find(|(k, _, _)| *k == kind) {
            Some((_, n, _)) => *n += 1,
            None => self.tallies.push((kind, 1, index)),
        }
    }

    /// Checks the next event under `policy`: `Strict` fails on a
    /// violation with `validate`'s error, the lenient policies drop the
    /// event. Returns whether the event was accepted.
    #[inline]
    pub fn offer(
        &mut self,
        policy: DegradationPolicy,
        t: f64,
        shape: Shape,
    ) -> Result<bool, TraceError> {
        if policy == DegradationPolicy::Strict {
            self.strict(t, shape).map(|()| true)
        } else {
            Ok(self.lenient(t, shape))
        }
    }

    /// One warning per kind of drop, in order of first occurrence.
    pub fn tally_warnings(&self) -> Vec<Warning> {
        self.tallies
            .iter()
            .map(|&(kind, n, first)| {
                Warning::new(kind, format!("dropped {n} event(s), first at index {first}"))
            })
            .collect()
    }

    /// The strict error for a violation of the just-checked event.
    #[cold]
    fn error(&self, kind: WarningKind, t: f64, shape: Shape) -> TraceError {
        let i = self.seen - 1;
        let object = match shape {
            Shape::Alloc { object, .. } | Shape::Free { object } => object,
            Shape::Other => ObjectId(0),
        };
        TraceError::Malformed(match kind {
            WarningKind::NonFiniteTime => format!("event {i} has non-finite timestamp {t}"),
            WarningKind::OutOfOrderEvent => {
                format!("event {i} at t={t} precedes previous event at t={}", self.last_t)
            }
            WarningKind::UnknownSite => match shape {
                Shape::Alloc { site, .. } => return TraceError::UnknownSite(site),
                _ => unreachable!("only allocations name a site"),
            },
            WarningKind::ZeroSizeAlloc => format!("zero-size allocation for {object}"),
            WarningKind::DuplicateAlloc => format!("object {object} allocated twice without free"),
            WarningKind::DoubleFree => format!("double free of {object}"),
            WarningKind::OrphanFree => format!("free of never-allocated {object}"),
            other => unreachable!("{other} is not an event rule"),
        })
    }
}

/// Sanitize's closing bookkeeping: the per-kind drop warnings, with the
/// `memtrace.sanitize.*` counters bumped for them and for `repairs`
/// earlier warnings (the metadata repairs).
pub(crate) fn sanitize_warnings(v: &Validator, mut warnings: Vec<Warning>) -> Vec<Warning> {
    for &(_, n, _) in &v.tallies {
        ecohmem_obs::count("memtrace.sanitize.dropped_events", n);
    }
    warnings.extend(v.tally_warnings());
    ecohmem_obs::count("memtrace.sanitize.repairs", warnings.len() as u64);
    warnings
}

/// Resets run metadata no consumer can use (non-finite or negative
/// duration, non-positive rates and periods), one warning per field.
pub(crate) fn repair_metadata(
    duration: &mut f64,
    sampling_hz: &mut f64,
    load_sample_period: &mut f64,
    store_sample_period: &mut f64,
) -> Vec<Warning> {
    let mut warnings = Vec::new();
    if !duration.is_finite() || *duration < 0.0 {
        warnings.push(Warning::new(
            WarningKind::BadMetadata,
            format!("duration {duration} reset to 0"),
        ));
        *duration = 0.0;
    }
    for (name, value) in [
        ("sampling_hz", sampling_hz),
        ("load_sample_period", load_sample_period),
        ("store_sample_period", store_sample_period),
    ] {
        if !value.is_finite() || *value <= 0.0 {
            warnings
                .push(Warning::new(WarningKind::BadMetadata, format!("{name} {value} reset to 1")));
            *value = 1.0;
        }
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstack::Frame;
    use crate::ids::ModuleId;

    fn validator() -> Validator {
        Validator::new(&[(SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x10)]))])
    }

    fn alloc(object: u64) -> Shape {
        Shape::Alloc { object: ObjectId(object), site: SiteId(0), size: 64 }
    }

    #[test]
    fn rejected_events_leave_the_state_untouched() {
        let mut v = validator();
        assert!(v.lenient(1.0, alloc(1)));
        assert!(!v.lenient(0.5, alloc(2)), "out of order");
        assert!(!v.lenient(f64::NAN, Shape::Other), "non-finite");
        assert!(!v.lenient(2.0, alloc(1)), "duplicate");
        assert_eq!(v.last_t, 1.0);
        assert_eq!(v.live.len(), 1);
        assert_eq!((v.seen, v.dropped, v.window.count), (4, 3, 3));
        let kinds: Vec<_> = v.tallies.iter().map(|&(k, n, i)| (k, n, i)).collect();
        assert_eq!(
            kinds,
            vec![
                (WarningKind::OutOfOrderEvent, 1, 1),
                (WarningKind::NonFiniteTime, 1, 2),
                (WarningKind::DuplicateAlloc, 1, 3),
            ]
        );
    }

    #[test]
    fn strict_errors_name_the_event() {
        let mut v = validator();
        v.strict(1.0, alloc(1)).unwrap();
        let e = v.strict(f64::NAN, Shape::Other).unwrap_err().to_string();
        assert!(e.contains("event 1 has non-finite timestamp NaN"), "{e}");
        let e = v.strict(0.5, Shape::Other).unwrap_err().to_string();
        assert!(e.contains("event 2 at t=0.5 precedes previous event at t=1"), "{e}");
        let e = v.strict(1.0, Shape::Free { object: ObjectId(9) }).unwrap_err().to_string();
        assert!(e.contains("free of never-allocated"), "{e}");
        v.strict(1.0, Shape::Free { object: ObjectId(1) }).unwrap();
        let e = v.strict(1.0, Shape::Free { object: ObjectId(1) }).unwrap_err().to_string();
        assert!(e.contains("double free"), "{e}");
        v.strict(1.5, alloc(1)).unwrap(); // realloc after free is legal
        assert!(matches!(
            v.strict(2.0, Shape::Alloc { object: ObjectId(5), site: SiteId(3), size: 8 }),
            Err(TraceError::UnknownSite(SiteId(3)))
        ));
    }
}
