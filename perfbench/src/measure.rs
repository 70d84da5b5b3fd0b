//! Measurement helpers: order statistics, host memory, and the span
//! recorder the traced run wraps around each public call.

use std::time::Instant;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Samples that must lie beyond a published tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The tail percentile to publish for `n` samples: `want` when at least
/// [`TAIL_SAMPLES`] samples lie beyond it, otherwise the highest
/// percentile that still has that many beyond it.
pub fn tail_pct(n: usize, want: f64) -> f64 {
    let most = 100.0 * (1.0 - TAIL_SAMPLES as f64 / n.max(1) as f64);
    want.min(most.floor()).max(50.0)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Puts the allocator in the state a long-running process reaches before
/// anything is timed. glibc serves large blocks (the platform workloads'
/// multi-MiB trace buffers) with fresh `mmap`s, page-faulting on every
/// build, until it frees one; then it raises its mmap and trim thresholds
/// to that size. When that happens depends on the order of frees, which
/// made set-up time bimodal across processes (2.5 vs 5.2 ms on
/// `amo_saturated`). Allocating and freeing one block just under glibc's
/// 32 MiB ceiling raises both thresholds at once, in every run.
pub fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(31 << 20)));
}

/// Times `f`, returning its result and the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// One recorded span: a named public call, its wall interval relative to
/// the tracer's start, the span that caused it, and the request (trial or
/// replayed job) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based span id.
    pub id: u32,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u32,
    /// Trial or job this span serves; spans of one request share it.
    pub request: u32,
    /// Layer-qualified call name, e.g. `core.run_epoch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder. Spans are only kept here and written out
/// once the run ends, so tracing never does I/O inside a timed call.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u32, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns: start_ns });
        id
    }

    /// Closes span `id` and returns its duration in microseconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = end;
        s.us()
    }

    /// Records `f` as a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, request, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Durations in microseconds of every span called `name`.
    pub fn us_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 98.0), 980.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_pct(900, 98.0), 98.0);
        assert_eq!(tail_pct(500, 98.0), 98.0);
        assert_eq!(tail_pct(200, 98.0), 95.0);
        assert_eq!(tail_pct(5, 98.0), 50.0);
    }

    #[test]
    fn spans_nest_and_time() {
        let mut t = Tracer::new();
        let root = t.begin("root", 1, 0);
        let x = t.span("child", 1, root, || 7);
        t.end(root);
        assert_eq!(x, 7);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.us_of("child").len(), 1);
    }
}
