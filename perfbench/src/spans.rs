//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, recorded from the benchmark's side of
//! the call: its name, start and end (ns since the tracer was created),
//! the span that caused it and the id of the run it belongs to. Spans stay
//! in memory until the run ends and are then written out as JSON lines.
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced run measures the program alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `None` for the disabled tracer.
pub type SpanId = Option<usize>;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub run: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// that the calls it makes can record child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        run: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = {
            let mut spans = spans.lock().expect("no span holder panicked");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run,
            });
            spans.len() - 1
        };
        let r = f(Some(id));
        let end = self.now_ns();
        spans.lock().expect("no span holder panicked")[id].end_ns = end;
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("no span holder panicked").clone())
            .unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may run in parallel and overlap, so
/// the covered part is the union of their intervals, clipped to the
/// parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += t;
    }
    by_name
}

/// Writes the spans as JSON lines, one object per span with its self time.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> std::io::Result<()> {
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.run
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // root [0,100): children [10,40) and [30,60) overlap on [30,40), so
        // they cover 50 ns; leaf [20,25) sits inside the first child.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("leaf", 20, 25, Some(1)),
            span("other", 200, 230, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 50);
        assert_eq!(by_name["leaf"], 5);
    }

    #[test]
    fn children_outside_the_parent_interval_are_clipped() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 0, |id| id), None);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        on.span("outer", None, 7, |id| on.span("inner", id, 7, |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
