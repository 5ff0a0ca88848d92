//! In-memory spans for the traced inline pass, their self-time waterfall,
//! and the TSV they are written out as.
//!
//! A span per call would be ten million spans, so calls are folded per
//! block of ≤ 256 events: one span per layer per block, carrying the time
//! its calls were busy, how many there were and what they allocated.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;
pub const NO_BLOCK: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Block of ≤ 256 events the span belongs to, or [`NO_BLOCK`].
    pub block: u32,
    /// First entry and last exit, ns since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the span's calls: `end − start` for a span that is one
    /// interval, less for a span folded from many calls.
    pub busy_ns: u64,
    pub calls: u32,
    /// Heap acquisitions (allocations + reallocations) inside the calls.
    pub allocs: u32,
}

/// Self time of every span: its busy time minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.busy_ns).collect();
    for s in spans {
        if let Some(parent) = own.get_mut(s.parent as usize) {
            *parent = parent.saturating_sub(s.busy_ns);
        }
    }
    own
}

/// One waterfall line: everything recorded under one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub name: &'static str,
    pub self_ns: u64,
    pub calls: u64,
    pub allocs: u64,
}

/// Self time, calls and allocations summed by span name, largest first.
pub fn waterfall(spans: &[Span]) -> Vec<Line> {
    let mut lines: Vec<Line> = Vec::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        match lines.iter_mut().find(|l| l.name == span.name) {
            Some(line) => {
                line.self_ns += self_ns;
                line.calls += u64::from(span.calls);
                line.allocs += u64::from(span.allocs);
            }
            None => lines.push(Line {
                name: span.name,
                self_ns,
                calls: u64::from(span.calls),
                allocs: u64::from(span.allocs),
            }),
        }
    }
    lines.sort_by_key(|l| std::cmp::Reverse(l.self_ns));
    lines
}

pub fn write_tsv(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "span\tname\tparent\tblock\tstart_ns\tend_ns\tbusy_ns\tcalls\tallocs"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let id = |v: u32| if v == u32::MAX { -1 } else { i64::from(v) };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name,
            id(s.parent),
            id(s.block),
            s.start_ns,
            s.end_ns,
            s.busy_ns,
            s.calls,
            s.allocs
        )?;
    }
    out.flush()
}

/// A point in the pass: time and heap acquisitions so far.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub ns: u64,
    pub acquisitions: u64,
}

/// Calls of one layer folded within the current block.
#[derive(Debug, Clone, Copy, Default)]
struct Fold {
    first_ns: u64,
    last_ns: u64,
    busy_ns: u64,
    calls: u32,
    allocs: u64,
}

/// Records spans for one pass. `LAYERS` names the leaf layers a block can
/// charge time to, by index.
pub struct Tracer {
    epoch: Instant,
    layers: &'static [&'static str],
    folds: Vec<Fold>,
    pub spans: Vec<Span>,
    root: u32,
    block_span: u32,
    block: u32,
}

impl Tracer {
    pub fn new(root_name: &'static str, layers: &'static [&'static str]) -> Self {
        let mut t = Tracer {
            epoch: Instant::now(),
            layers,
            folds: vec![Fold::default(); layers.len()],
            spans: Vec::new(),
            root: 0,
            block_span: NO_PARENT,
            block: 0,
        };
        t.spans.push(Span {
            name: root_name,
            parent: NO_PARENT,
            block: NO_BLOCK,
            start_ns: 0,
            end_ns: 0,
            busy_ns: 0,
            calls: 1,
            allocs: 0,
        });
        t
    }

    #[inline]
    pub fn mark(&self) -> Mark {
        Mark {
            ns: self.epoch.elapsed().as_nanos() as u64,
            acquisitions: stats_alloc::snapshot().acquisitions(),
        }
    }

    /// Charge the interval between two marks to a leaf layer.
    #[inline]
    pub fn charge(&mut self, layer: usize, from: &Mark, to: &Mark) {
        let f = &mut self.folds[layer];
        if f.calls == 0 {
            f.first_ns = from.ns;
        }
        f.last_ns = to.ns;
        f.busy_ns += to.ns - from.ns;
        f.calls += 1;
        f.allocs += to.acquisitions - from.acquisitions;
    }

    pub fn open_block(&mut self, name: &'static str, at: &Mark) {
        self.block_span = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.root,
            block: self.block,
            start_ns: at.ns,
            end_ns: at.ns,
            busy_ns: 0,
            calls: 1,
            allocs: 0,
        });
    }

    /// Close the current block: its folded layers become its children.
    pub fn close_block(&mut self, at: &Mark) {
        let block_span = self.block_span as usize;
        self.spans[block_span].end_ns = at.ns;
        self.spans[block_span].busy_ns = at.ns - self.spans[block_span].start_ns;
        for (layer, fold) in self.folds.iter_mut().enumerate() {
            if fold.calls > 0 {
                self.spans.push(Span {
                    name: self.layers[layer],
                    parent: self.block_span,
                    block: self.block,
                    start_ns: fold.first_ns,
                    end_ns: fold.last_ns,
                    busy_ns: fold.busy_ns,
                    calls: fold.calls,
                    allocs: fold.allocs.min(u64::from(u32::MAX)) as u32,
                });
            }
            *fold = Fold::default();
        }
        self.block += 1;
    }

    /// Close the root span; returns the pass's wall time, ns.
    pub fn finish(&mut self, at: &Mark) -> u64 {
        self.spans[0].end_ns = at.ns;
        self.spans[0].busy_ns = at.ns;
        at.ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, busy_ns: u64, calls: u32) -> Span {
        Span {
            name,
            parent,
            block: 0,
            start_ns: 0,
            end_ns: busy_ns,
            busy_ns,
            calls,
            allocs: calls,
        }
    }

    #[test]
    fn self_time_is_busy_minus_children() {
        // root 1000 ─┬─ block 600 ─┬─ apply 250 (10 calls)
        //            │             └─ predict 300
        //            └─ block 300 ─── apply 100
        let spans = vec![
            span("root", NO_PARENT, 1000, 1),
            span("block", 0, 600, 1),
            span("apply", 1, 250, 10),
            span("predict", 1, 300, 1),
            span("block", 0, 300, 1),
            span("apply", 4, 100, 5),
        ];
        assert_eq!(self_times(&spans), vec![100, 50, 250, 300, 200, 100]);
        let lines = waterfall(&spans);
        assert_eq!(lines.iter().map(|l| l.self_ns).sum::<u64>(), 1000);
        assert_eq!(lines[0].name, "apply");
        assert_eq!(
            (lines[0].self_ns, lines[0].calls, lines[0].allocs),
            (350, 15, 15)
        );
        let block = lines.iter().find(|l| l.name == "block").unwrap();
        assert_eq!(block.self_ns, 250);
    }

    #[test]
    fn children_busier_than_their_parent_do_not_underflow() {
        let spans = vec![span("root", NO_PARENT, 10, 1), span("leaf", 0, 25, 1)];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn tracer_folds_calls_into_one_span_per_layer_and_block() {
        static LAYERS: [&str; 2] = ["a", "b"];
        let mut t = Tracer::new("pass", &LAYERS);
        let m = |ns| Mark {
            ns,
            acquisitions: ns / 10,
        };
        t.open_block("block", &m(100));
        t.charge(0, &m(100), &m(130));
        t.charge(1, &m(130), &m(150));
        t.charge(0, &m(150), &m(200));
        t.close_block(&m(220));
        t.open_block("block", &m(220));
        t.charge(1, &m(230), &m(300));
        t.close_block(&m(300));
        assert_eq!(t.finish(&m(320)), 320);

        let a = &t.spans[2];
        assert_eq!((a.name, a.parent, a.block), ("a", 1, 0));
        assert_eq!(
            (a.start_ns, a.end_ns, a.busy_ns, a.calls),
            (100, 200, 80, 2)
        );
        assert_eq!(a.allocs, 3 + 5);
        assert_eq!(t.spans[4].block, 1);
        assert_eq!(t.spans[5].parent, 4);
        let total: u64 = waterfall(&t.spans).iter().map(|l| l.self_ns).sum();
        assert_eq!(total, 320, "the waterfall sums to the pass");
    }
}
