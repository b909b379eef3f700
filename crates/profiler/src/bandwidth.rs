//! The phase-binned system bandwidth series, shared by both analyzer paths
//! and the streaming ingestor.
//!
//! Every consumer bins its load-miss and L1D store-miss samples into
//! integer counts per phase-marker bin and hands them to
//! [`BwContext::new`], so all of them derive bit-identical series from the
//! same counts. The context then answers "system bandwidth at time `t`"
//! for the objects' `bw_at_alloc`, with [`BinCursor`] as its memoized bin
//! search.

/// Sorted phase-marker bins (at least one, starting at 0 when the trace
/// has no markers).
pub(crate) fn sorted_bins(mut bins: Vec<f64>) -> Vec<f64> {
    if bins.is_empty() {
        bins.push(0.0);
    }
    // total_cmp: a NaN phase-marker time must not panic the analyzer (it
    // sorts last and merely produces a useless bin).
    bins.sort_by(f64::total_cmp);
    bins
}

/// The bin index of a timestamp: the last bin starting at or before it,
/// and bin 0 for a time before every bin.
#[inline]
pub(crate) fn bin_of(bins: &[f64], t: f64) -> usize {
    bins.partition_point(|&b| b <= t).saturating_sub(1)
}

/// [`bin_of`] for scans whose consecutive samples tend to share a bin: it
/// keeps the previous answer's bin `[bins[b], bins[b + 1])` (unbounded
/// above for the last bin or a NaN successor), inside which `bin_of` is
/// constant at `b`. A sample in that bin skips the search; anything else
/// — a bin change, a time below the first bin, a NaN time — falls back to
/// [`bin_of`], so every answer is exactly `bin_of`'s.
pub(crate) struct BinCursor<'a> {
    bins: &'a [f64],
    lo: f64,
    hi: f64,
    bin: usize,
}

impl<'a> BinCursor<'a> {
    /// `bins` sorted by `total_cmp` (as [`sorted_bins`] leaves them) or in
    /// stream order; empty bins answer 0 for every time.
    pub(crate) fn new(bins: &'a [f64]) -> BinCursor<'a> {
        let mut c = BinCursor { bins, lo: f64::NAN, hi: f64::NAN, bin: 0 };
        c.remember(0);
        c
    }

    fn remember(&mut self, bin: usize) {
        self.bin = bin;
        // A negative NaN sorts first under `total_cmp`, which leaves the
        // search predicate unpartitioned; a NaN `lo` disables the memo so
        // such bins (and an empty bin list) always take the search path.
        self.lo = match self.bins.first() {
            Some(first) if !first.is_nan() => self.bins[bin],
            _ => f64::NAN,
        };
        self.hi = match self.bins.get(bin + 1) {
            Some(&next) if !next.is_nan() => next,
            _ => f64::INFINITY,
        };
    }

    #[inline]
    pub(crate) fn bin(&mut self, t: f64) -> usize {
        if !(self.lo <= t && t < self.hi) {
            self.remember(bin_of(self.bins, t));
        }
        self.bin
    }
}

/// A profile's bandwidth series over its phase bins: the
/// `(bin_start, bytes/sec)` series and its peak, plus the bin search that
/// answers the bandwidth at any time.
#[derive(Debug, Clone, Default)]
pub struct BwContext<'a> {
    bins: &'a [f64],
    /// `(bin_start_seconds, bytes_per_second)`.
    pub series: Vec<(f64, f64)>,
    /// Peak of the series.
    pub peak: f64,
}

impl<'a> BwContext<'a> {
    /// Converts per-bin sample counts into the series: load misses and L1D
    /// store misses each contribute one cacheline per sampling period, and
    /// the last bin ends at `duration`.
    pub fn new(
        bins: &'a [f64],
        load_counts: &[u64],
        store_miss_counts: &[u64],
        load_period: f64,
        store_period: f64,
        duration: f64,
    ) -> BwContext<'a> {
        let load_bytes = load_period * 64.0;
        let store_bytes = store_period * 64.0;
        let mut series = Vec::with_capacity(bins.len());
        for (i, &start) in bins.iter().enumerate() {
            let end = bins.get(i + 1).copied().unwrap_or(duration);
            let width = (end - start).max(1e-9);
            let bytes =
                load_counts[i] as f64 * load_bytes + store_miss_counts[i] as f64 * store_bytes;
            series.push((start, bytes / width));
        }
        let peak = series.iter().map(|&(_, bw)| bw).fold(0.0, f64::max);
        BwContext { bins, series, peak }
    }

    /// System bandwidth at a given time.
    pub fn at(&self, t: f64) -> f64 {
        self.bw_of_bin(bin_of(self.bins, t))
    }

    /// [`Self::at`] for a run of lookups that mostly stay in one bin, such
    /// as a site's allocations in id order: the bin search remembers the
    /// last answer's bin and searches only outside it.
    pub fn cursor(&self) -> impl FnMut(f64) -> f64 + '_ {
        let mut bins = BinCursor::new(self.bins);
        move |t| self.bw_of_bin(bins.bin(t))
    }

    fn bw_of_bin(&self, i: usize) -> f64 {
        self.series.get(i).map(|&(_, bw)| bw).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_convert_per_period() {
        let bins = vec![0.0, 1.0];
        let bw = BwContext::new(&bins, &[10, 0], &[0, 5], 2.0, 3.0, 3.0);
        // Bin 0: 10 load samples × 2 misses × 64B over 1 s.
        assert_eq!(bw.series[0], (0.0, 10.0 * 2.0 * 64.0));
        // Bin 1: 5 store-miss samples × 3 stores × 64B over 2 s.
        assert_eq!(bw.series[1], (1.0, 5.0 * 3.0 * 64.0 / 2.0));
        assert_eq!(bw.peak, bw.series[0].1);
        assert_eq!(bw.at(-1.0), bw.series[0].1, "before the first bin counts as bin 0");
        assert_eq!(bw.at(2.5), bw.series[1].1);
    }

    #[test]
    fn an_empty_context_answers_zero() {
        let bw = BwContext::default();
        let mut at = bw.cursor();
        for t in [f64::NEG_INFINITY, 0.0, 1.0, f64::NAN] {
            assert_eq!(bw.at(t), 0.0);
            assert_eq!(at(t), 0.0);
        }
    }

    #[test]
    fn bin_cursor_equals_bin_of() {
        let nan_tail = [0.0, 1.0, 1.0, 2.5, f64::NAN, f64::NAN];
        let layouts: [&[f64]; 6] = [
            &[0.0],
            &[0.0, 1.0, 1.0, 1.0, 2.0, 3.0],
            &[-0.0, 0.0, 0.5, 0.5],
            &nan_tail,
            &[-f64::NAN, -1.0, 0.0, 2.0],
            &[1.0, 2.0, 4.0],
        ];
        let probes = [
            -1.0,
            -0.0,
            0.0,
            0.25,
            0.5,
            1.0,
            1.5,
            2.0,
            2.5,
            3.0,
            4.0,
            9.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = 0x5eed_u64;
        for bins in layouts {
            let bins = sorted_bins(bins.to_vec());
            // Ascending probes (the scan's order), then seeded shuffles.
            for round in 0..64 {
                let mut order: Vec<f64> = probes.to_vec();
                if round > 0 {
                    for i in (1..order.len()).rev() {
                        rng =
                            rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        order.swap(i, (rng >> 33) as usize % (i + 1));
                    }
                }
                let mut cursor = BinCursor::new(&bins);
                for t in order {
                    assert_eq!(cursor.bin(t), bin_of(&bins, t), "bins {bins:?}, t {t}");
                }
            }
        }
    }
}
