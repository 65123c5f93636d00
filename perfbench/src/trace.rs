//! A dependency-free span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span: name, start, end, parent span and request id. Spans stay
//! in memory (one `Tracer` per client thread, merged at the end) and
//! are written out when the run ends. A span's self time is its
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one thread. A disabled tracer only runs the
/// closures, so the untraced run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's duration in ns (the
    /// duration is measured whether or not spans are kept).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_nanos() as u64);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            thread: self.thread,
        });
        self.open.push(index);
        let r = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[index as usize].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals of a span set.
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans (each thread's list with its own parent indices)
/// into per-name count, total and self time.
pub fn profile(threads: &[Vec<Span>]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        for (s, &children) in spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(children);
        }
    }
    out
}

/// Renders the profile as an aligned table.
pub fn render_profile(profile: &BTreeMap<&'static str, NameTotals>) -> String {
    let mut s = String::from("span profile (name, count, total ms, self ms, mean self us):\n");
    for (name, t) in profile {
        let _ = writeln!(
            s,
            "  {name:<28} {:>9} {:>12.3} {:>12.3} {:>10.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / 1e3 / t.count.max(1) as f64
        );
    }
    s
}

/// One CSV row per span: thread, index, parent, request, name, start, end.
pub fn to_csv(threads: &[Vec<Span>]) -> String {
    let mut s = String::from("thread,index,parent,request,name,start_ns,end_ns\n");
    for spans in threads {
        for (i, span) in spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                String::new()
            } else {
                span.parent.to_string()
            };
            let _ = writeln!(
                s,
                "{},{i},{parent},{},{},{},{}",
                span.thread, span.request, span.name, span.start_ns, span.end_ns
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, 0);
        let p = profile(&[spans]);
        let outer = p["outer"];
        let inner = p["inner"];
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }
}
