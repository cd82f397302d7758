//! Triangle sinks: the `emit(·,·,·)` procedure of the paper.
//!
//! The paper studies *enumeration*, not *listing*: every triangle must be
//! reported through a call to `emit` at a moment when its three edges are in
//! internal memory, but it need not be written to external memory. A
//! [`TriangleSink`] is exactly that `emit` procedure; the built-in sinks
//! count, checksum or collect the triangles, and tests use them to check the
//! exactly-once guarantee against the in-memory oracle.

use graphgen::Triangle;

/// The consumer of emitted triangles.
pub trait TriangleSink {
    /// Called exactly once per triangle of the input graph.
    fn emit(&mut self, t: Triangle);

    /// Called when the enumeration reaches a durable checkpoint boundary —
    /// immediately *after* the checkpoint file has been atomically replaced.
    /// Ordinary sinks ignore it; [`DurableSink`] uses it to commit buffered
    /// emissions, which is what makes crash-and-resume exactly-once.
    fn on_checkpoint(&mut self) {}
}

/// Counts emitted triangles and folds them into an order-independent digest.
///
/// This is the recommended sink for experiments: it is `O(1)` memory, so it
/// cannot distort the I/O accounting, and the digest still allows an
/// exact set-equality check against [`graphgen::naive::triangle_checksum`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    count: u64,
    digest: u64,
}

impl CountingSink {
    /// Creates an empty counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triangles emitted so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Order-independent digest (wrapping sum of per-triangle digests) of the
    /// emitted set. Equal sets produce equal digests; duplicated emissions
    /// change the digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The `(count, digest)` pair in the same format as
    /// [`graphgen::naive::triangle_checksum`].
    pub fn checksum(&self) -> (u64, u64) {
        (self.count, self.digest)
    }
}

impl TriangleSink for CountingSink {
    fn emit(&mut self, t: Triangle) {
        self.count += 1;
        self.digest = self.digest.wrapping_add(t.digest());
    }
}

/// Collects every emitted triangle in memory. Intended for tests and small
/// examples — on large inputs it deliberately defeats the point of
/// enumeration (the paper's distinction from listing), so experiments use
/// [`CountingSink`] instead.
#[derive(Debug, Default, Clone)]
pub struct CollectingSink {
    triangles: Vec<Triangle>,
}

impl CollectingSink {
    /// Creates an empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The triangles collected so far, in emission order.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// Consumes the sink and returns the collected triangles.
    pub fn into_triangles(self) -> Vec<Triangle> {
        self.triangles
    }

    /// Number of triangles collected.
    pub fn len(&self) -> usize {
        self.triangles.len()
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }
}

impl TriangleSink for CollectingSink {
    fn emit(&mut self, t: Triangle) {
        self.triangles.push(t);
    }
}

/// A write-ahead buffer that makes an inner sink's view crash-consistent:
/// emissions are held back until [`TriangleSink::on_checkpoint`] commits
/// them, so a crash between checkpoints discards exactly the triangles of
/// the work units the matching resume will run again (those at or after the
/// checkpoint's `units_done`).
///
/// The committed count is the *high-water mark* persisted in each
/// [`crate::checkpoint::Checkpoint`]; [`DurableSink::resume_from`] restores
/// it so a resumed run continues the exactly-once numbering across the
/// crash boundary.
pub struct DurableSink<'a> {
    inner: &'a mut dyn TriangleSink,
    pending: Vec<Triangle>,
    committed: u64,
}

impl<'a> DurableSink<'a> {
    /// Wraps `inner` for a fresh run (high-water mark 0).
    pub fn new(inner: &'a mut dyn TriangleSink) -> Self {
        Self::resume_from(inner, 0)
    }

    /// Wraps `inner` for a run resumed from a checkpoint whose high-water
    /// mark is `high_water_mark`: the inner sink is assumed to have already
    /// received exactly that many triangles before the crash.
    pub fn resume_from(inner: &'a mut dyn TriangleSink, high_water_mark: u64) -> Self {
        Self {
            inner,
            // emlint: allow(unleased, reason = "user-side durability buffer between checkpoint commits; sits outside the measured algorithm like every other sink")
            pending: Vec::new(),
            committed: high_water_mark,
        }
    }

    /// Triangles durably delivered to the inner sink (including any counted
    /// by the resume high-water mark).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Emissions buffered since the last commit.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Flushes the buffer to the inner sink and advances the high-water
    /// mark. Called by [`TriangleSink::on_checkpoint`] and, by the driver,
    /// once more when a run completes.
    pub fn commit(&mut self) {
        for t in self.pending.drain(..) {
            self.inner.emit(t);
            self.committed += 1;
        }
    }
}

impl TriangleSink for DurableSink<'_> {
    fn emit(&mut self, t: Triangle) {
        self.pending.push(t);
    }

    fn on_checkpoint(&mut self) {
        self.commit();
    }
}

/// Adapts a closure into a sink.
pub struct FnSink<F: FnMut(Triangle)>(pub F);

impl<F: FnMut(Triangle)> TriangleSink for FnSink<F> {
    fn emit(&mut self, t: Triangle) {
        (self.0)(t)
    }
}

/// A sink that panics on the first duplicate emission — used by the test
/// suite to enforce the exactly-once contract.
#[derive(Debug, Default)]
pub struct StrictSink {
    // emlint: allow(uncharged-std, reason = "verification sink enforcing the exactly-once contract for tests; never part of a measured run")
    seen: std::collections::HashSet<Triangle>,
}

impl StrictSink {
    /// Creates an empty strict sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distinct triangles seen.
    // emlint: allow(uncharged-std, reason = "accessor of the verification sink's set; test-only inspection")
    pub fn seen(&self) -> &std::collections::HashSet<Triangle> {
        &self.seen
    }

    /// Number of distinct triangles seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no triangle has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

impl TriangleSink for StrictSink {
    fn emit(&mut self, t: Triangle) {
        assert!(self.seen.insert(t), "triangle {t:?} emitted more than once");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_matches_collecting_sink() {
        let ts = [
            Triangle::new(1, 2, 3),
            Triangle::new(2, 3, 4),
            Triangle::new(1, 3, 9),
        ];
        let mut c = CountingSink::new();
        let mut v = CollectingSink::new();
        for t in ts {
            c.emit(t);
            v.emit(t);
        }
        assert_eq!(c.count(), 3);
        assert_eq!(v.len(), 3);
        let expected: u64 = ts.iter().map(|t| t.digest()).fold(0, u64::wrapping_add);
        assert_eq!(c.digest(), expected);
    }

    #[test]
    fn digest_is_order_independent_but_multiset_sensitive() {
        let a = Triangle::new(1, 2, 3);
        let b = Triangle::new(4, 5, 6);
        let mut s1 = CountingSink::new();
        s1.emit(a);
        s1.emit(b);
        let mut s2 = CountingSink::new();
        s2.emit(b);
        s2.emit(a);
        assert_eq!(s1.checksum(), s2.checksum());
        let mut s3 = CountingSink::new();
        s3.emit(a);
        s3.emit(a);
        assert_ne!(s1.checksum(), s3.checksum());
    }

    #[test]
    fn fn_sink_forwards() {
        let mut n = 0;
        {
            let mut s = FnSink(|_t| n += 1);
            s.emit(Triangle::new(1, 2, 3));
            s.emit(Triangle::new(1, 2, 4));
        }
        assert_eq!(n, 2);
    }

    #[test]
    #[should_panic(expected = "emitted more than once")]
    fn strict_sink_rejects_duplicates() {
        let mut s = StrictSink::new();
        s.emit(Triangle::new(1, 2, 3));
        s.emit(Triangle::new(1, 2, 3));
    }

    #[test]
    fn durable_sink_commits_only_at_checkpoints() {
        let mut inner = CollectingSink::new();
        {
            let mut d = DurableSink::new(&mut inner);
            d.emit(Triangle::new(1, 2, 3));
            d.emit(Triangle::new(2, 3, 4));
            assert_eq!(d.pending_len(), 2);
            assert_eq!(d.committed(), 0);
            d.on_checkpoint();
            assert_eq!(d.pending_len(), 0);
            assert_eq!(d.committed(), 2);
            // A crash here would drop this uncommitted tail.
            d.emit(Triangle::new(3, 4, 5));
        }
        assert_eq!(inner.len(), 2, "uncommitted emissions must not leak");
    }

    #[test]
    fn durable_sink_resume_restores_the_high_water_mark() {
        let mut inner = CountingSink::new();
        let mut d = DurableSink::resume_from(&mut inner, 41);
        assert_eq!(d.committed(), 41);
        d.emit(Triangle::new(7, 8, 9));
        d.commit();
        assert_eq!(d.committed(), 42);
    }
}
