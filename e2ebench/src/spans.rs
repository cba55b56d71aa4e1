//! In-memory span recording for the traced run.
//!
//! A span is a named interval with an optional parent. The benchmark
//! records spans around its own calls into each layer's public
//! functions, keeps them in memory while the workload runs, and writes
//! them out when it ends. A span's self time is its duration minus the
//! part of its interval that its direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use ctgauss_prng::{ChaChaRng, RandomSource};

/// Sentinel parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `core.refill`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Identifier shared by the spans of one operation (a signature or a
    /// request).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A single-threaded span recorder with an open-span stack.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`; give every thread
    /// of one run the same epoch so their spans share a time base.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the operation id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Drops every recorded span (no span may be open).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with a span open");
        self.spans.clear();
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: self.op,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: enter/exit calls are unbalanced.
    pub fn exit(&mut self) {
        let end = self.now();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index as usize].end = end;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A `RandomSource` that records a `prng.fill` span around every
/// `fill_u64s` and forwards everything to ChaCha unchanged.
pub struct TracedRng {
    inner: ChaChaRng,
    rec: Rc<RefCell<Recorder>>,
}

impl TracedRng {
    /// Wraps `inner`.
    pub fn new(inner: ChaChaRng, rec: Rc<RefCell<Recorder>>) -> Self {
        TracedRng { inner, rec }
    }
}

impl RandomSource for TracedRng {
    fn fill_bytes(&mut self, dst: &mut [u8]) {
        self.inner.fill_bytes(dst);
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn fill_u64s(&mut self, dst: &mut [u64]) {
        self.rec.borrow_mut().enter("prng.fill");
        self.inner.fill_u64s(dst);
        self.rec.borrow_mut().exit();
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children[span.parent as usize].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// Totals by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration();
        entry.self_ns += self_ns;
    }
    out
}

/// Writes spans as tab-separated `name start_ns end_ns parent op` lines,
/// one thread's recorder per `thread` column value.
pub fn write_tsv(out: &mut impl Write, thread: &str, spans: &[Span]) -> io::Result<()> {
    for span in spans {
        let parent = if span.parent == ROOT {
            -1
        } else {
            i64::from(span.parent)
        };
        writeln!(
            out,
            "{thread}\t{}\t{}\t{}\t{parent}\t{}",
            span.name, span.start, span.end, span.op
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span("falcon.sign", 0, 100, ROOT),
            span("core.refill", 10, 30, 0),
            span("prng.fill", 12, 20, 1),
            span("core.refill", 40, 50, 0),
        ];
        let selfs = self_times(&spans);
        // The sign loses both refills (20 + 10), not the grandchild.
        assert_eq!(selfs, vec![70, 12, 8, 10]);
        let t = totals(&spans);
        assert_eq!(t["falcon.sign"].self_ns, 70);
        assert_eq!(t["core.refill"].total_ns, 30);
        assert_eq!(t["core.refill"].self_ns, 22);
        assert_eq!(t["core.refill"].count, 2);
        // The identity the report checks: self + children == total.
        assert_eq!(
            t["falcon.sign"].self_ns + t["core.refill"].total_ns,
            t["falcon.sign"].total_ns
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("parent", 100, 200, ROOT),
            span("a", 90, 130, 0),
            span("b", 120, 150, 0),
            span("c", 190, 260, 0),
        ];
        // Covered: [100, 150) and [190, 200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_by_stack() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_op(7);
        rec.enter("outer");
        rec.enter("inner");
        rec.exit();
        rec.enter("inner");
        rec.exit();
        rec.exit();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let selfs = self_times(spans);
        assert_eq!(
            selfs[0] + spans[1].duration() + spans[2].duration(),
            spans[0].duration()
        );
    }
}
