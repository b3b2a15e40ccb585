//! Benchmark-side spans around calls into the simulator's layers.
//!
//! Spans live in memory while the traced run executes and are written
//! out once at the end. Each span has a name, a start and an end (seconds
//! since the tracer's origin), an optional parent span and a run id (the
//! simulation it belongs to). A disabled tracer records nothing and costs
//! one branch per call site, so untraced runs measure the program alone.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use ccn_harness::Json;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// The simulation (or workload-level activity) the span belongs to.
    pub run: String,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin; `None` while open.
    pub end: Option<f64>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in seconds (zero while still open).
    pub fn dur(&self) -> f64 {
        self.end.map_or(0.0, |e| e - self.start)
    }
}

/// A thread-safe in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the tracer's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        run: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                run: run.to_string(),
                start: self.now(),
                end: None,
                parent,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span recorder poisoned")[id].end = Some(end);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Sum of the durations of every span named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .fold(0.0, |a, d| a + d)
}

/// Longest span named `name` (zero if none).
pub fn longest(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .fold(0.0, f64::max)
}

/// Self time of every span named `name`: its duration minus the union of
/// its children's intervals.
pub fn self_time(spans: &[Span], name: &str) -> f64 {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end) {
            children.entry(p).or_default().push((s.start, end));
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| s.dur() - children.get(&i).map_or(0.0, |c| covered(c)))
        .fold(0.0, |a, d| a + d)
}

/// Length of the union of `intervals`.
fn covered(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut sum = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (s, e) in sorted {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            _ => {
                if let Some((os, oe)) = open {
                    sum += oe - os;
                }
                open = Some((s, e));
            }
        }
    }
    sum + open.map_or(0.0, |(s, e)| e - s)
}

/// Checks the span tree over a traced window `[from, to]` and returns the
/// unattributed time: the window minus its top-level spans. The spans
/// must all be closed, nest inside their parents, and the top-level ones
/// must not overlap, so that top-level spans plus the unattributed rest
/// telescope exactly to the window.
pub fn reconcile(spans: &[Span], from: f64, to: f64) -> Result<f64, String> {
    const SLACK: f64 = 1e-9;
    let mut top: Vec<(f64, f64)> = Vec::new();
    for s in spans {
        let end = s
            .end
            .ok_or_else(|| format!("span {} was never closed", s.name))?;
        match s.parent {
            Some(p) => {
                let parent = &spans[p];
                let pend = parent.end.unwrap_or(f64::INFINITY);
                if s.start + SLACK < parent.start || end > pend + SLACK {
                    return Err(format!(
                        "span {} escapes its parent {}",
                        s.name, parent.name
                    ));
                }
            }
            None => {
                if s.start + SLACK < from || end > to + SLACK {
                    return Err(format!(
                        "top-level span {} escapes the traced window",
                        s.name
                    ));
                }
                top.push((s.start, end));
            }
        }
    }
    top.sort_by(|a, b| a.0.total_cmp(&b.0));
    if top.windows(2).any(|w| w[1].0 + SLACK < w[0].1) {
        return Err("top-level spans overlap".to_string());
    }
    let attributed: f64 = top.iter().map(|(s, e)| e - s).sum();
    let unattributed = (to - from) - attributed;
    if unattributed < -SLACK {
        return Err(format!(
            "top-level spans sum to {attributed} s, more than the traced wall {} s",
            to - from
        ));
    }
    Ok(unattributed.max(0.0))
}

/// The spans as JSON, one object per span in recording order.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::UInt(i as u64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("run", Json::Str(s.run.clone())),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end.unwrap_or(f64::NAN))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        t.span("outer", "r", None, |p| {
            t.span("inner", "r", p, |_| std::hint::black_box(0));
            t.span("inner", "r", p, |_| std::hint::black_box(0));
        });
        let spans = t.spans();
        let outer = total(&spans, "outer");
        let inner = total(&spans, "inner");
        let own = self_time(&spans, "outer");
        assert!((own + inner - outer).abs() < 1e-12);
    }

    #[test]
    fn reconcile_telescopes_and_rejects_overlap() {
        let mk = |start, end, parent| Span {
            name: "s",
            run: String::new(),
            start,
            end: Some(end),
            parent,
        };
        let spans = vec![
            mk(1.0, 2.0, None),
            mk(1.5, 1.8, Some(0)),
            mk(3.0, 4.0, None),
        ];
        assert!((reconcile(&spans, 0.0, 5.0).unwrap() - 3.0).abs() < 1e-12);
        let overlapping = vec![mk(1.0, 2.0, None), mk(1.5, 2.5, None)];
        assert!(reconcile(&overlapping, 0.0, 5.0).is_err());
        let escaping = vec![mk(1.0, 2.0, None), mk(1.5, 2.5, Some(0))];
        assert!(reconcile(&escaping, 0.0, 5.0).is_err());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", "r", None, |p| p), None);
        assert!(t.spans().is_empty());
    }
}
