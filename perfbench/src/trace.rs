//! In-memory span recorder for the traced run, and the fold of a span
//! tree into per-layer self time.
//!
//! Spans are opened around calls into each layer from the benchmark's own
//! code. A span's name is `<layer>.<what>`; its layer is the part before
//! the first dot. Nesting follows the call stack, so every child lies
//! inside its parent's interval.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to; children inherit it.
    pub op: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans on one thread.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Runs `f` inside a span named `name`. `op` tags the span with an
    /// operation id; `None` inherits the enclosing span's.
    pub fn span<R>(&self, name: &'static str, op: Option<u64>, f: impl FnOnce() -> R) -> R {
        let parent = self.open.borrow().last().copied();
        let op = op.or_else(|| parent.and_then(|p| self.spans.borrow()[p].op));
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "every span is closed");
        self.spans.into_inner()
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn within<R>(
    recorder: Option<&Recorder>,
    name: &'static str,
    op: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match recorder {
        Some(recorder) => recorder.span(name, op, f),
        None => f(),
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children that overlap each other are counted
/// once; parts of a child outside its parent are ignored.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - union
        })
        .collect()
}

/// Self time summed by a key of each span (its layer or its name), in ms.
/// Root spans are left out: their self time is what no layer claims (see
/// [`unclaimed_ms`]).
pub fn fold_ms(spans: &[Span], key: impl Fn(&Span) -> &'static str) -> BTreeMap<&'static str, f64> {
    let mut folded = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if span.parent.is_some() {
            *folded.entry(key(span)).or_insert(0.0) += self_ns as f64 / 1e6;
        }
    }
    folded
}

/// The root spans' self time: host time inside the traced section that
/// no layer span covers, in ms.
pub fn unclaimed_ms(spans: &[Span]) -> f64 {
    spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(span, _)| span.parent.is_none())
        .map(|(_, self_ns)| self_ns as f64 / 1e6)
        .sum()
}

/// Host cost of one empty span on a fresh recorder (ns), the median of
/// five batches.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let recorder = Recorder::new();
            let start = Instant::now();
            for _ in 0..SPANS {
                recorder.span("bench.empty", None, || ());
            }
            start.elapsed().as_nanos() as f64 / f64::from(SPANS)
        })
        .collect();
    crate::stats::median(&samples)
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let op = s.op.map_or("null".to_owned(), |o| o.to_string());
            format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) › sweep [10,90) › measure [20,60) › warm [25,35), run [35,55)
        //                               measure [60,80)
        let spans = vec![
            span("bench.assemble", 0, 100, None),
            span("core.sweep", 10, 90, Some(0)),
            span("core.measure", 20, 60, Some(1)),
            span("sim.warm_up", 25, 35, Some(2)),
            span("sim.measure", 35, 55, Some(2)),
            span("core.measure", 60, 80, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 10, 20, 20]);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        let layers = fold_ms(&spans, Span::layer);
        assert!(!layers.contains_key("bench"), "the root is left out");
        assert!(close(layers["core"], 50e-6));
        assert!(close(layers["sim"], 30e-6));
        assert!(close(unclaimed_ms(&spans), 20e-6));
        assert!(
            close(layers.values().sum::<f64>() + unclaimed_ms(&spans), 100e-6),
            "layer self times and the unclaimed time sum to the root"
        );
        let names = fold_ms(&spans, |s| s.name);
        assert!(close(names["core.measure"], 30e-6));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("a.root", 10, 50, None),
            span("b.x", 0, 20, Some(0)),
            span("b.y", 15, 30, Some(0)),
            span("b.z", 45, 70, Some(0)),
        ];
        // Covered inside the root: [10,30) and [45,50) = 25 of 40.
        assert_eq!(self_times_ns(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_and_inherits_op_ids() {
        let recorder = Recorder::new();
        recorder.span("bench.root", None, || {
            recorder.span("core.measure", Some(7), || {
                recorder.span("sim.build", None, || std::hint::black_box(1 + 1));
            });
        });
        let spans = recorder.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].op, Some(7));
        assert_eq!(spans[0].op, None);
        for s in &spans[1..] {
            let p = &spans[s.parent.unwrap()];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
        assert!(to_json(&spans).contains("\"name\":\"sim.build\""));
        assert!(span_cost_ns() > 0.0);
    }
}
