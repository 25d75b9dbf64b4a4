//! Per-layer times from the spans a traced round records: the
//! program's own spans (`engine.*`, `sim.*`, `serve.*`, `fleet.*`) and
//! the `bench.*` spans this benchmark opens around each timed public
//! call.

use delta_obs::SpanEvent;
use std::collections::HashMap;

/// Span totals by name, in seconds.
#[derive(Debug, Default)]
pub struct SpanTimes {
    /// Σ duration.
    total: HashMap<String, f64>,
    /// Σ self time: duration minus the part of it that child spans
    /// cover.
    own: HashMap<String, f64>,
}

impl SpanTimes {
    pub fn from_events(events: &[SpanEvent]) -> SpanTimes {
        let mut children: HashMap<(u32, u64), Vec<(u64, u64)>> = HashMap::new();
        for e in events.iter().filter(|e| e.parent != 0) {
            children
                .entry((e.pid, e.parent))
                .or_default()
                .push((e.ts_us, e.ts_us + e.dur_us));
        }
        let mut out = SpanTimes::default();
        for e in events {
            let (start, end) = (e.ts_us, e.ts_us + e.dur_us);
            let covered = children
                .get_mut(&(e.pid, e.id))
                .map_or(0, |c| covered_us(c, start, end));
            let name = e.name.to_string();
            *out.total.entry(name.clone()).or_default() += e.dur_us as f64 * 1e-6;
            *out.own.entry(name).or_default() += e.dur_us.saturating_sub(covered) as f64 * 1e-6;
        }
        out
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }

    pub fn own_s(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0.0)
    }
}

/// Microseconds of `[start, end)` covered by the union of `intervals`.
fn covered_us(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Σ over fleet jobs of dispatch time minus execute time: what a job
/// spends on the wire, in (de)serialization and in the executors'
/// polls. Spans pair up by query (correlation id) and `job` argument,
/// which executor spans carry as text after crossing the wire.
pub fn fleet_wait_s(events: &[SpanEvent]) -> f64 {
    let job = |e: &SpanEvent| {
        e.args.iter().find_map(|(k, v)| match v {
            delta_obs::ArgValue::U64(id) if k == "job" => Some((e.corr, *id)),
            delta_obs::ArgValue::Str(id) if k == "job" => Some((e.corr, id.parse().ok()?)),
            _ => None,
        })
    };
    let mut execute: HashMap<(u64, u64), u64> = HashMap::new();
    for e in events.iter().filter(|e| e.name == "fleet.execute") {
        if let Some(id) = job(e) {
            *execute.entry(id).or_default() += e.dur_us;
        }
    }
    events
        .iter()
        .filter(|e| e.name == "fleet.dispatch")
        .filter_map(|e| Some(e.dur_us.saturating_sub(*execute.get(&job(e)?)?)))
        .sum::<u64>() as f64
        * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(id: u64, parent: u64, name: &'static str, ts: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            id,
            parent,
            name: Cow::Borrowed(name),
            ts_us: ts,
            dur_us: dur,
            pid: 1,
            tid: 1,
            corr: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let events = [
            span(1, 0, "outer", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 30, 20), // overlaps `a` by 10 µs
            span(4, 3, "c", 35, 5),
        ];
        let t = SpanTimes::from_events(&events);
        assert!((t.own_s("outer") - 60e-6).abs() < 1e-12);
        assert!((t.own_s("b") - 15e-6).abs() < 1e-12);
        assert!((t.total_s("outer") - 100e-6).abs() < 1e-12);
    }
}
