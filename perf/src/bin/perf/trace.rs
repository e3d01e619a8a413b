//! Span recorder of the traced run.
//!
//! The harness wraps each call into a layer in a span: name, start, end,
//! the span that caused it, and one id per step or request. Spans stay in
//! memory (one recorder per harness thread) and are written out when the
//! run ends. A layer's self time is its spans' duration minus the time
//! their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes the span list it is stored in.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's trace epoch.
    pub end_ns: u64,
    /// The enclosing span on the same thread.
    pub parent: Option<u32>,
    /// Step or request the span belongs to.
    pub id: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    id: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread. `epoch` is shared by every thread of
/// the run so their spans line up.
pub fn start(epoch: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() =
            Some(Recorder { epoch, spans: Vec::with_capacity(1 << 20), open: Vec::new(), id: 0 })
    });
}

/// The trace epoch when this thread is recording: lets a workload start
/// recorders with the same epoch on the threads it spawns.
pub fn epoch() -> Option<Instant> {
    RECORDER.with(|r| r.borrow().as_ref().map(|rec| rec.epoch))
}

/// Stops recording on this thread and hands back its spans.
pub fn finish() -> Vec<SpanRec> {
    RECORDER.with(|r| r.borrow_mut().take()).map(|r| r.spans).unwrap_or_default()
}

/// Sets the step or request id stamped on spans opened from now on.
pub fn set_id(id: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.id = id;
        }
    });
}

/// Closes its span when dropped. Inert when the thread is not recording.
#[must_use = "a span ends when its guard drops"]
pub struct Guard(Option<u32>);

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(rec) = slot.as_mut() else { return Guard(None) };
        let idx = rec.spans.len() as u32;
        let parent = rec.open.last().copied();
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(SpanRec { name, start_ns, end_ns: start_ns, parent, id: rec.id });
        rec.open.push(idx);
        Guard(Some(idx))
    })
}

/// A closed span, for [`rename`].
#[derive(Debug, Clone, Copy)]
pub struct Closed(Option<u32>);

impl Guard {
    /// Closes the span now and keeps a handle for renaming it.
    pub fn end(mut self) -> Closed {
        self.close();
        Closed(self.0.take())
    }

    fn close(&self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Renames a closed span: for calls whose outcome (hit or miss) is only
/// known after they return, without timing the lookup that tells.
pub fn rename(span: Closed, name: &'static str) {
    if let Some(idx) = span.0 {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx as usize].name = name;
            }
        });
    }
}

/// Appends another thread's spans, keeping their parent links valid.
pub fn merge(all: &mut Vec<SpanRec>, part: Vec<SpanRec>) {
    let offset = all.len() as u32;
    all.extend(part.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Multiplies every timestamp by `factor` (the calibration factor of the
/// interval the spans were recorded in).
pub fn rescale(spans: &mut [SpanRec], factor: f64) {
    for s in spans {
        s.start_ns = (s.start_ns as f64 * factor) as u64;
        s.end_ns = (s.end_ns as f64 * factor) as u64;
    }
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e6
    }
}

/// Per-name totals with self time = duration minus children.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Summed duration of every span named `name`, in seconds; 0 when there is
/// none.
pub fn total_s(totals: &BTreeMap<&'static str, NameTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9)
}

/// Sum of self time over every span whose name starts with `layer.`.
pub fn layer_self_ns(totals: &BTreeMap<&'static str, NameTotals>, layer: &str) -> u64 {
    totals
        .iter()
        .filter(|(name, _)| name.split('.').next() == Some(layer))
        .map(|(_, t)| t.self_ns)
        .sum()
}

/// Writes the spans as `{"names": [...], "spans": [[name, start_ns, end_ns,
/// parent, id], ...]}` (`parent` is -1 for a root).
pub fn write_json(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
    for s in spans {
        index.entry(s.name).or_insert_with(|| {
            names.push(s.name);
            names.len() - 1
        });
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    write!(w, "{{\"names\": [{}], \"spans\": [", quoted.join(", "))?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        let sep = if i == 0 { "" } else { "," };
        write!(w, "{sep}\n[{},{},{},{parent},{}]", index[s.name], s.start_ns, s.end_ns, s.id)?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec { name, start_ns: start, end_ns: end, parent, id: 0 }
    }

    /// step [0,100] ─ forward [10,60] ─ gemm [20,30], gemm [35,50]
    ///              └ push [70,90]
    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            rec("runtime.step", 0, 100, None),
            rec("core.forward", 10, 60, Some(0)),
            rec("tensor.gemm", 20, 30, Some(1)),
            rec("tensor.gemm", 35, 50, Some(1)),
            rec("runtime.push", 70, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["runtime.step"], NameTotals { count: 1, total_ns: 100, self_ns: 30 });
        assert_eq!(t["core.forward"], NameTotals { count: 1, total_ns: 50, self_ns: 25 });
        assert_eq!(t["tensor.gemm"], NameTotals { count: 2, total_ns: 25, self_ns: 25 });
        assert_eq!(t["runtime.push"].self_ns, 20);
        // Self times partition the root span.
        assert_eq!(t.values().map(|x| x.self_ns).sum::<u64>(), 100);
        assert_eq!(layer_self_ns(&t, "runtime"), 50);
        assert_eq!(layer_self_ns(&t, "tensor"), 25);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let epoch = Instant::now();
        start(epoch);
        set_id(7);
        {
            let _outer = span("a.outer");
            let inner = span("a.inner").end();
            rename(inner, "a.renamed");
        }
        let first = finish();
        assert_eq!(first.len(), 2);
        assert_eq!(first[1].name, "a.renamed");
        assert_eq!(first[1].parent, Some(0));
        assert_eq!(first[0].id, 7);
        assert!(first[0].end_ns >= first[1].end_ns);
        // Not recording: spans are inert.
        drop(span("a.ignored"));
        assert!(finish().is_empty());

        let mut all = first.clone();
        merge(&mut all, first);
        assert_eq!(all[3].parent, Some(2));
    }
}
