//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the harness makes into a layer. Spans live in a
//! pre-sized `Vec` and are written out only after the last workload
//! ends; with the tracer off, [`Tracer::span`] is one branch around the
//! call, which is how the untraced end-to-end run takes the same path.

use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent` is the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<u32>,
    pub name: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, so recording
    /// does not reallocate inside a timed region.
    pub fn on(capacity: usize) -> Tracer {
        Tracer {
            on: true,
            spans: Vec::with_capacity(capacity),
            ..Tracer::off()
        }
    }

    /// Names the workload that spans recorded from now on belong to.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            workload: self.workload,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Durations, in nanoseconds, of every span of `workload` called `name`.
    pub fn durations(&self, workload: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Summed duration, in nanoseconds, of those spans.
    pub fn total_ns(&self, workload: &str, name: &str) -> f64 {
        self.durations(workload, name).iter().sum()
    }

    /// Per span name of `workload`: `(name, count, total ns, self ns)`,
    /// in first-seen order. Self time is a span's duration minus what its
    /// direct children cover (children of one parent never overlap).
    pub fn summary(&self, workload: &str) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            if s.workload != workload {
                continue;
            }
            let own = s.ns() - covered.min(&s.ns());
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += s.ns();
                    row.3 += own;
                }
                None => rows.push((s.name, 1, s.ns(), own)),
            }
        }
        rows
    }

    /// Writes the spans of `workload` as JSON lines
    /// `{id, parent, name, workload, start_ns, end_ns}`.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            if s.workload != workload {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.workload, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
