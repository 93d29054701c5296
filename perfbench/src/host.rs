//! Host-side measurement: the monotonic and CPU clocks, process memory, and
//! the benchmark's own span recorder.
//!
//! Every wall-clock reading goes through [`bench::WallTimer`], the
//! workspace's one sanctioned wall-clock site, and the CPU clock is read
//! here only; nothing here can reach simulated state.

use bench::WallTimer;

/// Seconds on a monotonic clock started when the recorder was created.
pub struct Clock {
    origin: WallTimer,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            origin: WallTimer::start(),
        }
    }

    /// Seconds since [`Clock::start`].
    pub fn now(&self) -> f64 {
        self.origin.elapsed_secs()
    }

    /// Runs `f` and returns its result with the seconds it took.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = self.now();
        let out = f();
        (out, self.now() - t0)
    }

    /// Runs `f` and returns its result with the CPU seconds the process
    /// spent meanwhile (see [`cpu_now`]).
    pub fn cpu_time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = cpu_now();
        let out = f();
        (out, cpu_now() - t0)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, all threads) the process has used. It
/// leaves out time the process waited for a CPU, and the steal time a
/// hypervisor reports, though not a CPU running slower because of load on
/// the host.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A fixed load of the benchmark's own, independent of the program: string
/// keys in a hash map, a binary heap, float math and a sort, much like the
/// work of a set-up. Returns its CPU seconds, a reading of how fast the
/// machine runs such code at that moment.
pub fn reference_load() -> f64 {
    use std::collections::{BinaryHeap, HashMap};
    let t0 = cpu_now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<String, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let mut v: Vec<f64> = Vec::with_capacity(20_000);
    for i in 0..20_000u64 {
        let r = next();
        *map.entry(format!("obj-{:08x}", r % 5000)).or_insert(0) += i;
        heap.push(r >> 3);
        if i % 3 == 0 {
            heap.pop();
        }
        v.push(((r % 1000) as f64 + 1.0).ln().exp());
    }
    v.sort_by(f64::total_cmp);
    std::hint::black_box((map.len(), heap.len(), v[v.len() / 2]));
    cpu_now() - t0
}

/// A field of `/proc/self/status` in MiB (`VmHWM` = peak resident set).
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One closed span of the benchmark's own trace.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder. Disabled recorders cost one branch per call,
/// so the untraced runs execute the same benchmark code path.
pub struct Spans {
    enabled: bool,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, clock: &Clock, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.stack.last().copied(),
            start: clock.now(),
            end: f64::NAN,
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self, clock: &Clock) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit without a matching enter");
        self.spans[id].end = clock.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, clock: &Clock, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.enter(clock, name);
        let out = f(self);
        self.exit(clock);
        out
    }

    /// Closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.stack.is_empty(), "spans still open: {:?}", self.stack);
        &self.spans
    }
}

/// Self time per span: its duration minus the time its direct children
/// cover. When the spans nest properly (see [`check_nesting`]), the self
/// times of a tree sum to its root's duration.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.dur();
        }
    }
    spans
        .iter()
        .zip(child_time)
        .map(|(s, c)| s.dur() - c)
        .collect()
}

/// Checks that the spans form one tree in time: a single root, every span
/// inside its parent, siblings one after another, and no negative self
/// time. Returns one line per violation.
pub fn check_nesting(spans: &[Span]) -> Vec<String> {
    let mut problems = Vec::new();
    let roots = spans.iter().filter(|s| s.parent.is_none()).count();
    if roots != 1 {
        problems.push(format!("{roots} root spans, expected 1"));
    }
    // End of the latest closed child, per parent.
    let mut last_child_end: Vec<Option<f64>> = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end.is_nan() || s.end < s.start {
            problems.push(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = &spans[p];
        if s.start < parent.start || s.end > parent.end {
            problems.push(format!(
                "span {i} ({}) is not inside its parent {p} ({})",
                s.name, parent.name
            ));
        }
        if last_child_end[p].is_some_and(|end| s.start < end) {
            problems.push(format!("span {i} ({}) overlaps an earlier sibling", s.name));
        }
        last_child_end[p] = Some(s.end);
    }
    for (i, self_s) in self_times(spans).into_iter().enumerate() {
        if self_s < 0.0 {
            problems.push(format!(
                "span {i} ({}) has negative self time {self_s} s",
                spans[i].name
            ));
        }
    }
    problems
}

/// Spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto), with
/// each span's self time in its `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, (s, self_s)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"self_us\":{:.3},\"id\":{},\"parent\":{}}}}}",
            crate::report::json_str(&s.name),
            s.start * 1e6,
            s.dur() * 1e6,
            self_s * 1e6,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            start,
            end,
        }
    }

    #[test]
    fn nesting_check_accepts_a_tree_and_flags_overlaps() {
        let good = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("a.1", Some(1), 2.0, 3.0),
            span("b", Some(0), 4.0, 9.0),
        ];
        assert!(check_nesting(&good).is_empty());
        let self_sum: f64 = self_times(&good).iter().sum();
        assert!((self_sum - 10.0).abs() < 1e-12);

        // A child that outlives its parent and overlaps its sibling.
        let bad = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 6.0),
            span("b", Some(0), 5.0, 11.0),
        ];
        let problems = check_nesting(&bad);
        assert!(
            problems.iter().any(|p| p.contains("not inside")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("overlaps")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("negative self time")),
            "{problems:?}"
        );
    }
}
