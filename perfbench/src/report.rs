//! Summary statistics and the hand-rolled JSON the benchmark emits.

use bench::harness::percentile;

/// Median, by the experiment reports' percentile rule.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The tail percentile reported for a delay sample: the highest of
/// p99.99/p99.9/p99/p90 that still has at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub label: &'static str,
    pub value: f64,
    /// Samples strictly above the reported percentile's rank.
    pub beyond: usize,
}

pub fn tail(sorted: &[f64]) -> Tail {
    // (label, percentile, share beyond it in parts per 10^4): the count
    // beyond is integer arithmetic, free of rounding at the boundary.
    const LEVELS: [(&str, f64, usize); 4] = [
        ("p99.99", 99.99, 1),
        ("p99.9", 99.9, 10),
        ("p99", 99.0, 100),
        ("p90", 90.0, 1000),
    ];
    let n = sorted.len();
    let pick = LEVELS
        .iter()
        .find(|&&(_, _, per_10k)| n * per_10k / 10_000 >= 10)
        .unwrap_or(&LEVELS[3]);
    let (label, p, per_10k) = *pick;
    Tail {
        label,
        value: percentile(sorted, p),
        beyond: n * per_10k / 10_000,
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// An ordered JSON object under construction.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn num(mut self, key: &str, x: f64) -> Obj {
        self.fields.push((key.to_string(), json_num(x)));
        self
    }

    pub fn int(mut self, key: &str, x: u64) -> Obj {
        self.fields.push((key.to_string(), x.to_string()));
        self
    }

    pub fn str(mut self, key: &str, s: &str) -> Obj {
        self.fields.push((key.to_string(), json_str(s)));
        self
    }

    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.fields.push((key.to_string(), json));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), v))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for a list of metrics.
pub fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let mut obj = Obj::new();
    for (name, value, unit) in metrics {
        obj = obj.raw(
            name,
            Obj::new().num("value", *value).str("unit", unit).render(),
        );
    }
    obj.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(tail(&v).label, "p99.99");
        let v: Vec<f64> = (0..20_000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.label, t.beyond), ("p99.9", 20));
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&v).label, "p90");
    }

    #[test]
    fn json_round_trips_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
