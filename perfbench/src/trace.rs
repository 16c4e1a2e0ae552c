//! In-memory span recorder for the traced run.
//!
//! A span is one public call into a layer: its name (`layer.op`),
//! start and end, the span that caused it, and the thread it ran on.
//! Spans are kept in memory and written out once, when the run ends.
//!
//! Parents come from a per-thread stack. A span opened on a worker
//! thread with an empty stack (a cross-validation fold running on an
//! `rsm_runtime` worker, the server thread) takes as parent the
//! innermost span open on the calling thread — the thread that created
//! the [`Tracer`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u64,
    /// Id of the causing span, 0 for none.
    pub parent: u64,
    /// `layer.op`.
    pub name: &'static str,
    /// Small per-process thread number.
    pub thread: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_no() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Collects spans from every thread of the process.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    caller: u64,
    /// Innermost span open on the calling thread (0 for none).
    root: AtomicU64,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose calling thread is the thread that creates it.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            caller: thread_no(),
            root: AtomicU64::new(0),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let thread = thread_no();
        let on_caller = thread == self.caller;
        let parent = STACK
            .with(|s| s.borrow().last().copied())
            .unwrap_or_else(|| {
                if on_caller {
                    0
                } else {
                    self.root.load(Ordering::SeqCst)
                }
            });
        STACK.with(|s| s.borrow_mut().push(id));
        if on_caller {
            self.root.store(id, Ordering::SeqCst);
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        if on_caller {
            self.root.store(parent, Ordering::SeqCst);
        }
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                name,
                thread,
                start_ns,
                end_ns,
            });
        out
    }

    /// All spans recorded so far, in order of completion.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking thread")
            .clone()
    }

    /// Writes every span as one CSV line
    /// (`id,parent,thread,name,start_ns,end_ns`).
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,thread,name,start_ns,end_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Wall time of a window split by layer: at every instant the time goes
/// to the layer of the deepest open span (on any thread), or to
/// `unattributed` when no span is open. The parts sum to the window.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self seconds per layer.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Seconds with no span open.
    pub unattributed_s: f64,
    /// Window length in seconds.
    pub wall_s: f64,
}

impl Attribution {
    /// Self seconds of one layer (0 when it has no span).
    pub fn layer(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// `|Σ self + unattributed − wall|`, in seconds.
    pub fn reconcile_error_s(&self) -> f64 {
        (self.self_s.values().sum::<f64>() + self.unattributed_s - self.wall_s).abs()
    }
}

/// Attributes the window `[from_ns, to_ns)` over `spans`.
pub fn attribute(spans: &[Span], from_ns: u64, to_ns: u64) -> Attribution {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let depth = |s: &Span| {
        let mut d = 0usize;
        let mut p = s.parent;
        while let Some(ps) = by_id.get(&p) {
            d += 1;
            p = ps.parent;
        }
        d
    };
    // Events: (time, +1 open / -1 close, depth, layer). Closes sort
    // before opens at the same instant.
    let mut events: Vec<(u64, i8, usize, &'static str)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        let (a, b) = (s.start_ns.max(from_ns), s.end_ns.min(to_ns));
        if a >= b {
            continue;
        }
        let d = depth(s);
        events.push((a, 1, d, s.layer()));
        events.push((b, -1, d, s.layer()));
    }
    events.sort_by_key(|&(t, kind, _, _)| (t, kind));
    let mut open: BTreeMap<(usize, &'static str), usize> = BTreeMap::new();
    let mut att = Attribution {
        wall_s: (to_ns - from_ns) as f64 * 1e-9,
        ..Attribution::default()
    };
    let mut last = from_ns;
    let mut credit = |open: &BTreeMap<(usize, &'static str), usize>, a: u64, b: u64| {
        let dt = (b - a) as f64 * 1e-9;
        match open.keys().next_back() {
            Some(&(_, layer)) => *att.self_s.entry(layer).or_insert(0.0) += dt,
            None => att.unattributed_s += dt,
        }
    };
    for (t, kind, d, layer) in events {
        credit(&open, last, t);
        last = t;
        if kind > 0 {
            *open.entry((d, layer)).or_insert(0) += 1;
        } else if let Some(n) = open.get_mut(&(d, layer)) {
            *n -= 1;
            if *n == 0 {
                open.remove(&(d, layer));
            }
        }
    }
    credit(&open, last, to_ns);
    att
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread: 1,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn attribution_gives_time_to_the_deepest_span_and_sums_to_wall() {
        let spans = vec![
            span(1, 0, "session.step", 10, 60),
            span(2, 1, "source.correlate", 20, 40),
            span(3, 1, "source.correlate", 30, 50),
        ];
        let att = attribute(&spans, 0, 100);
        assert!((att.layer("source") - 30e-9).abs() < 1e-15);
        assert!((att.layer("session") - 20e-9).abs() < 1e-15);
        assert!((att.unattributed_s - 50e-9).abs() < 1e-15);
        assert!(att.reconcile_error_s() < 1e-15);
    }

    #[test]
    fn worker_spans_take_the_calling_span_as_parent() {
        let tracer = Tracer::new();
        tracer.span("solver.fit", || {
            std::thread::scope(|s| {
                s.spawn(|| tracer.span("source.correlate", || ()));
            });
        });
        let spans = tracer.spans();
        let fit = spans.iter().find(|s| s.name == "solver.fit").unwrap();
        let cor = spans.iter().find(|s| s.name == "source.correlate").unwrap();
        assert_eq!(fit.parent, 0);
        assert_eq!(cor.parent, fit.id);
        assert_ne!(cor.thread, fit.thread);
    }
}
