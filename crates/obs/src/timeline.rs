//! Cycle-driven sampling of the component stats spine.
//!
//! A [`Sampler`] is armed with a cadence; the simulator's event loop asks
//! it [`Sampler::due_at`] before dispatching each event and, when a
//! sample is due, hands it a fresh [`ccn_sim::ComponentStats`]
//! snapshot. The sampler
//! flattens the tree into `path/metric` series and appends one column to
//! its [`Timeline`].
//!
//! Samples are attributed to the *due* cycle, not the event that
//! triggered them: the state observed is exactly the state after every
//! event strictly before the first event at or past the due cycle, which
//! is a deterministic function of the simulation alone — two runs with
//! the same seed produce bit-identical timelines regardless of wall
//! clock, worker count, or host.

use ccn_harness::Json;
use ccn_sim::{ComponentStats, Cycle};

/// Whether a series tracks a monotonic counter or a point-in-time gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic `u64` event counts (arrivals, occupancy cycles, …).
    Counter,
    /// Derived `f64` point-in-time values (utilizations, mean delays).
    Gauge,
}

impl SeriesKind {
    fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

#[derive(Debug, Clone)]
enum Values {
    Counter(Vec<u64>),
    Gauge(Vec<f64>),
}

#[derive(Debug, Clone)]
struct Series {
    /// Slash-joined component path, e.g. `"machine/node0/cc/engine0.LPE"`.
    path: String,
    metric: &'static str,
    values: Values,
}

/// A columnar buffer of per-component time series: one shared time axis
/// plus one value column per `(component path, metric)` pair.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    times: Vec<Cycle>,
    series: Vec<Series>,
}

impl Timeline {
    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The sample cycles, ascending.
    pub fn times(&self) -> &[Cycle] {
        &self.times
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// The counter series for `metric` on the component at `path`, if
    /// such a series was sampled.
    pub fn counter_series(&self, path: &str, metric: &str) -> Option<&[u64]> {
        self.series
            .iter()
            .find(|s| s.path == path && s.metric == metric)
            .and_then(|s| match &s.values {
                Values::Counter(v) => Some(v.as_slice()),
                Values::Gauge(_) => None,
            })
    }

    /// The gauge series for `metric` on the component at `path`.
    pub fn gauge_series(&self, path: &str, metric: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|s| s.path == path && s.metric == metric)
            .and_then(|s| match &s.values {
                Values::Gauge(v) => Some(v.as_slice()),
                Values::Counter(_) => None,
            })
    }

    /// Iterates over `(path, metric, kind)` for every series, in the
    /// deterministic depth-first spine order.
    pub fn series_keys(&self) -> impl Iterator<Item = (&str, &str, SeriesKind)> {
        self.series.iter().map(|s| {
            let kind = match s.values {
                Values::Counter(_) => SeriesKind::Counter,
                Values::Gauge(_) => SeriesKind::Gauge,
            };
            (s.path.as_str(), s.metric, kind)
        })
    }

    /// Serializes the timeline as a deterministic JSON object: the time
    /// axis plus one entry per series, in spine order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "times",
                Json::Arr(self.times.iter().map(|&t| Json::UInt(t)).collect()),
            ),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            let (kind, values) = match &s.values {
                                Values::Counter(v) => (
                                    SeriesKind::Counter,
                                    v.iter().map(|&x| Json::UInt(x)).collect(),
                                ),
                                Values::Gauge(v) => {
                                    (SeriesKind::Gauge, v.iter().map(|&x| Json::Num(x)).collect())
                                }
                            };
                            Json::obj([
                                ("path", Json::Str(s.path.clone())),
                                ("metric", Json::Str(s.metric.to_string())),
                                ("kind", Json::Str(kind.label().to_string())),
                                ("values", Json::Arr(values)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Appends one sample column taken from `snapshot` at cycle `at`.
    fn push_sample(&mut self, at: Cycle, snapshot: &ComponentStats) {
        if self.times.is_empty() {
            self.init_series(snapshot);
        }
        self.times.push(at);
        let mut idx = 0usize;
        append_values(snapshot, String::new(), &mut self.series, &mut idx);
        assert_eq!(
            idx,
            self.series.len(),
            "component tree shape changed between samples"
        );
    }

    /// Fixes the series set from the first snapshot's tree shape.
    fn init_series(&mut self, snapshot: &ComponentStats) {
        fn walk(node: &ComponentStats, prefix: &str, out: &mut Vec<Series>) {
            let path = join(prefix, &node.name);
            for &(metric, _) in &node.counters {
                out.push(Series {
                    path: path.clone(),
                    metric,
                    values: Values::Counter(Vec::new()),
                });
            }
            for &(metric, _) in &node.gauges {
                out.push(Series {
                    path: path.clone(),
                    metric,
                    values: Values::Gauge(Vec::new()),
                });
            }
            for child in &node.children {
                walk(child, &path, out);
            }
        }
        walk(snapshot, "", &mut self.series);
    }
}

fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}/{name}")
    }
}

/// Walks `node` in the same order as `init_series`, appending one value
/// to each series. The spine's tree shape is static over a run, so the
/// walk order is the series order.
fn append_values(node: &ComponentStats, prefix: String, series: &mut [Series], idx: &mut usize) {
    let path = join(&prefix, &node.name);
    for &(metric, value) in &node.counters {
        let s = &mut series[*idx];
        debug_assert!(s.path == path && s.metric == metric);
        match &mut s.values {
            Values::Counter(v) => v.push(value),
            Values::Gauge(_) => unreachable!("series kind fixed at first sample"),
        }
        *idx += 1;
    }
    for &(metric, value) in &node.gauges {
        let s = &mut series[*idx];
        debug_assert!(s.path == path && s.metric == metric);
        match &mut s.values {
            Values::Gauge(v) => v.push(value),
            Values::Counter(_) => unreachable!("series kind fixed at first sample"),
        }
        *idx += 1;
    }
    for child in &node.children {
        append_values(child, path.clone(), series, idx);
    }
}

/// Drives periodic sampling of the stats spine during the measured phase.
///
/// ```
/// use ccn_obs::Sampler;
/// use ccn_sim::ComponentStats;
///
/// let mut sampler = Sampler::new(100);
/// let snap = ComponentStats::named("m").counter("events", 3);
/// // Event loop: before dispatching an event at cycle 250, take the
/// // samples that came due at cycles 100 and 200.
/// while let Some(due) = sampler.due_at(250) {
///     sampler.record(due, &snap);
/// }
/// assert_eq!(sampler.timeline().times(), &[100, 200]);
/// ```
#[derive(Debug, Clone)]
pub struct Sampler {
    every: Cycle,
    next_due: Cycle,
    timeline: Timeline,
}

impl Sampler {
    /// Creates a sampler taking one sample every `every` cycles, starting
    /// at cycle `every`.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: Cycle) -> Self {
        assert!(every > 0, "sampling cadence must be positive");
        Sampler {
            every,
            next_due: every,
            timeline: Timeline::default(),
        }
    }

    /// The sampling cadence in cycles.
    pub fn cadence(&self) -> Cycle {
        self.every
    }

    /// Re-arms at the start of the measured phase: discards warm-up
    /// samples and schedules the next sample `every` cycles after `now`.
    pub fn arm(&mut self, now: Cycle) {
        self.next_due = now + self.every;
        self.timeline = Timeline::default();
    }

    /// If a sample is due at or before `now`, returns its cycle (the
    /// caller follows up with [`record`](Sampler::record)).
    pub fn due_at(&self, now: Cycle) -> Option<Cycle> {
        (self.next_due <= now).then_some(self.next_due)
    }

    /// Records one sample at cycle `at` and schedules the next.
    pub fn record(&mut self, at: Cycle, snapshot: &ComponentStats) {
        self.timeline.push_sample(at, snapshot);
        self.next_due = at + self.every;
    }

    /// The accumulated timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(x: u64) -> ComponentStats {
        ComponentStats::named("machine").counter("events", x).child(
            ComponentStats::named("node0")
                .counter("arrivals", x * 2)
                .gauge("util", x as f64 / 10.0)
                .child(ComponentStats::named("cc").counter("handled", x + 1)),
        )
    }

    #[test]
    fn sampler_cadence_and_catch_up() {
        let mut s = Sampler::new(50);
        // Nothing due before the first period elapses.
        assert_eq!(s.due_at(49), None);
        // An event at cycle 175 owes three samples: 50, 100, 150.
        let mut taken = Vec::new();
        while let Some(due) = s.due_at(175) {
            s.record(due, &snap(due));
            taken.push(due);
        }
        assert_eq!(taken, vec![50, 100, 150]);
        assert_eq!(s.timeline().times(), &[50, 100, 150]);
    }

    #[test]
    fn arm_discards_warmup_samples() {
        let mut s = Sampler::new(10);
        s.record(10, &snap(1));
        assert_eq!(s.timeline().len(), 1);
        s.arm(100);
        assert_eq!(s.timeline().len(), 0);
        assert_eq!(s.due_at(105), None);
        assert_eq!(s.due_at(110), Some(110));
    }

    #[test]
    fn series_are_columnar_and_typed() {
        let mut s = Sampler::new(10);
        s.record(10, &snap(1));
        s.record(20, &snap(2));
        let tl = s.timeline();
        assert_eq!(tl.series_count(), 4);
        assert_eq!(tl.counter_series("machine", "events"), Some(&[1u64, 2][..]));
        assert_eq!(
            tl.counter_series("machine/node0/cc", "handled"),
            Some(&[2u64, 3][..])
        );
        let util = tl.gauge_series("machine/node0", "util").unwrap();
        assert_eq!(util.len(), 2);
        // Kind mismatch and unknown paths return None.
        assert!(tl.gauge_series("machine", "events").is_none());
        assert!(tl.counter_series("machine/nodeX", "events").is_none());
    }

    #[test]
    fn timeline_json_shape() {
        let mut s = Sampler::new(10);
        s.record(10, &snap(3));
        let j = s.timeline().to_json();
        let times = match j.get("times").unwrap() {
            Json::Arr(v) => v.len(),
            _ => panic!("times must be an array"),
        };
        assert_eq!(times, 1);
        let series = match j.get("series").unwrap() {
            Json::Arr(v) => v,
            _ => panic!("series must be an array"),
        };
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].get("path").unwrap().as_str(), Some("machine"));
        assert_eq!(series[0].get("kind").unwrap().as_str(), Some("counter"));
        // Determinism: the rendered text is stable.
        assert_eq!(j.to_string(), s.timeline().to_json().to_string());
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn changed_tree_shape_is_rejected() {
        let mut s = Sampler::new(10);
        s.record(10, &snap(1));
        s.record(20, &ComponentStats::named("machine").counter("events", 1));
    }
}
