//! Spans and counts recorded around every call the benchmark makes into a
//! layer of the system.
//!
//! A [`Tracer`] is either off, when a span is just the call it wraps and no
//! clock is read, or on, when each call gets a [`Span`] (name, start, end,
//! parent, item) kept in memory until the run ends. A layer's self time is
//! its span's duration minus the time its child spans cover.

use cwsp_obs::ObsSink;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, such as `sim.run` or `compiler.form_regions`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in the same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The item being processed, or `None` during set-up.
    pub item: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and count recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    item: Option<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the wrapped calls.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: None,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            item: self.item,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        r
    }

    /// Run item `item` inside a top-level span named `item`.
    pub fn item<R>(&mut self, item: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.item = Some(item);
        let r = self.span("item", f);
        self.item = None;
        r
    }

    /// Add `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// An [`ObsSink`] that records the spans and counts a crate publishes
    /// as children of the innermost open span.
    pub fn sink(&mut self) -> LayerSink<'_> {
        let base_ns = if self.on { self.now_ns() } else { 0 };
        LayerSink {
            tracer: self,
            base_ns,
        }
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Self time of every span, summed by name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// `(wall, uncovered)` nanoseconds summed over item spans: the items'
    /// total duration and the part of it no layer span covers.
    pub fn item_coverage(&self) -> (u64, u64) {
        let wall: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == "item")
            .map(Span::dur_ns)
            .sum();
        (wall, self.self_ns().get("item").copied().unwrap_or(0))
    }
}

/// Maps a crate's published span and count names onto the benchmark's
/// layer names; `None` drops the event.
fn layer_name(track: &str, name: &str) -> Option<&'static str> {
    Some(match (track, name) {
        ("compiler", "optimize") => "compiler.optimize",
        ("compiler", "compute_call_saves") => "compiler.call_saves",
        ("compiler", "split_same_reg_updates") => "compiler.split",
        ("compiler", "form_regions") => "compiler.form_regions",
        ("compiler", "insert_checkpoints") => "compiler.insert_checkpoints",
        ("compiler", "prune_and_build_slices") => "compiler.prune_and_build_slices",
        ("compiler", "validate") => "compiler.validate",
        ("", "compiler.regions_formed") => "compiler.boundaries",
        ("", "compiler.antidep_cuts") => "compiler.antidep_cuts",
        ("", "compiler.ckpts_pruned") => "compiler.ckpts_pruned",
        ("", "compiler.slices_emitted") => "compiler.slices",
        _ => return None,
    })
}

/// The [`ObsSink`] handed to `compile_observed`: its pass spans (timed from
/// the call's own start) become children of the open span.
pub struct LayerSink<'t> {
    tracer: &'t mut Tracer,
    base_ns: u64,
}

impl ObsSink for LayerSink<'_> {
    fn enabled(&self) -> bool {
        self.tracer.on
    }

    fn span(&mut self, track: &str, name: &str, ts_ns: u64, dur_ns: u64) {
        let Some(name) = layer_name(track, name) else {
            return;
        };
        let t = &mut *self.tracer;
        let start_ns = self.base_ns + ts_ns;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: t.open.last().copied(),
            item: t.item,
        });
    }

    fn count(&mut self, name: &str, delta: u64) {
        if let Some(name) = layer_name("", name) {
            self.tracer.count(name, delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.item(0, |t| {
            t.span("outer", |t| {
                t.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let s = t.self_ns();
        let (wall, uncovered) = t.item_coverage();
        assert!(s["inner"] >= 2_000_000);
        assert!(s["outer"] < s["inner"]);
        assert!(uncovered < wall);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[2].item, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| {
            t.count("c", 1);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty() && t.counts().is_empty());
    }
}
