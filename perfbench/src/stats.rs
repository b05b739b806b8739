//! Percentiles, the server's `METRICS` counters, and the result record.

use std::collections::BTreeMap;

/// The `q`-quantile of `samples` by linear interpolation between closest
/// ranks; a failed sample is `+∞` and counts as a miss. `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if sorted[hi].is_infinite() {
        return f64::INFINITY;
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The flat integer object `METRICS` returns in JSON form.
#[derive(Debug, Clone, Default)]
pub struct Counters(pub BTreeMap<String, u64>);

impl Counters {
    /// Parse `{"name":123,...}`.
    pub fn parse(json: &str) -> Counters {
        let body = json.trim().trim_start_matches('{').trim_end_matches('}');
        Counters(
            body.split(',')
                .filter_map(|kv| {
                    let (k, v) = kv.split_once(':')?;
                    Some((
                        k.trim().trim_matches('"').to_owned(),
                        v.trim().parse().ok()?,
                    ))
                })
                .collect(),
        )
    }

    /// A counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `self - earlier`, counter by counter (gauges read as their later
    /// value through [`Counters::get`] on `self`).
    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.get(k))))
                .collect(),
        )
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Ordered metric list for one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }
}

/// JSON number: finite values with all their digits; a miss (`+∞`, from
/// a failed sample) or an undefined value as a large sentinel.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_owned()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
