//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself is not instrumented). Each span has a name, start,
//! end, parent span and a request id that every span of one request
//! shares. Recording is off unless [`enable`] was called, so the timed
//! runs pay one relaxed load per call site. At exit the spans are written
//! as Chrome trace-event JSON.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use tqt_rt::json::Json;

/// One closed (or still open: `end_ns == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        // Never panic in drop: a poisoned recorder just loses the span end.
        if let Ok(mut v) = SPANS.lock() {
            v[idx].end_ns = end.max(v[idx].start_ns + 1);
        }
    }
}

/// Opens a span under the thread's innermost open span. `req` 0 inherits
/// the parent's request id.
pub fn span(name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let tid = TID.with(|t| *t);
    let mut v = spans();
    let req = match (req, parent) {
        (0, Some(p)) => v[p].req,
        _ => req,
    };
    let idx = v.len();
    v.push(Span {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        req,
        tid,
    });
    drop(v);
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard(Some(idx))
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name, 0);
    f()
}

/// Every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    spans().clone()
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, ks)| {
            ks.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in ks.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self times in milliseconds of every span named `name`.
pub fn self_ms(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of `spans`,
/// with `meta` as the document's metadata.
pub fn chrome_json(spans: &[Span], meta: Json) -> Json {
    let selfs = self_times_ns(spans);
    let events = spans
        .iter()
        .zip(&selfs)
        .map(|(s, &self_ns)| {
            let mut args = BTreeMap::new();
            args.insert("req".to_string(), Json::Num(s.req as f64));
            if let Some(p) = s.parent {
                args.insert("parent".to_string(), Json::from(p));
            }
            args.insert("self_us".to_string(), Json::Num(self_ns as f64 / 1e3));
            let mut ev = BTreeMap::new();
            ev.insert("name".to_string(), Json::from(s.name));
            ev.insert("ph".to_string(), Json::from("X"));
            ev.insert("pid".to_string(), Json::Num(1.0));
            ev.insert("tid".to_string(), Json::Num(s.tid as f64));
            ev.insert("ts".to_string(), Json::Num(s.start_ns as f64 / 1e3));
            ev.insert("dur".to_string(), Json::Num(s.dur_ns() as f64 / 1e3));
            ev.insert("args".to_string(), Json::Obj(args));
            Json::Obj(ev)
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("traceEvents".to_string(), Json::Arr(events));
    doc.insert("metadata".to_string(), meta);
    Json::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            req: 1,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(0, 100, None),
            sp(10, 30, Some(0)),
            sp(20, 50, Some(0)),  // overlaps the first child
            sp(90, 120, Some(0)), // runs past the parent's end
            sp(12, 14, Some(1)),  // grandchild: only its parent's time
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 18, 30, 30, 2]);
    }
}
