//! Reading `ard`'s `/metrics` (Prometheus text) and `/snapshot` (JSON).
//!
//! A series is keyed by its full name as exposed, labels included,
//! e.g. `ar_node_tokens_rx_total{shard="0"}`. Lookups of a series the
//! daemon does not export fail, so a renamed metric cannot read as 0.

use std::collections::BTreeMap;

use ar_telemetry::json::Value;

/// One daemon's exposition at one instant.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// `/metrics` series by full key.
    pub metrics: BTreeMap<String, f64>,
    /// `/snapshot` participant statistics (`stats` object).
    pub stats: BTreeMap<String, f64>,
}

/// Parses Prometheus text exposition into series → value.
///
/// # Errors
///
/// A line that is not `<series> <value>`.
pub fn parse_metrics(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("metrics line without a value: {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("metrics line with a bad value: {line:?}"))?;
        out.insert(key.trim().to_string(), value);
    }
    Ok(out)
}

/// Extracts the numeric `stats` object of a `/snapshot` document.
///
/// # Errors
///
/// Invalid JSON or a missing `stats` object.
pub fn parse_snapshot_stats(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Value::parse(text).map_err(|e| format!("/snapshot: {e}"))?;
    let stats = doc
        .get("stats")
        .and_then(Value::as_object)
        .ok_or("/snapshot has no stats object")?;
    Ok(stats
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
        .collect())
}

impl Scrape {
    /// A `/metrics` series.
    ///
    /// # Errors
    ///
    /// The series is not exported.
    pub fn metric(&self, key: &str) -> Result<f64, String> {
        self.metrics
            .get(key)
            .copied()
            .ok_or_else(|| format!("ard does not export {key}"))
    }

    /// A `/snapshot` statistic.
    ///
    /// # Errors
    ///
    /// The statistic is missing.
    pub fn stat(&self, key: &str) -> Result<f64, String> {
        self.stats
            .get(key)
            .copied()
            .ok_or_else(|| format!("/snapshot has no stats.{key}"))
    }
}

/// `name{shard="0"}`: where `ard --rings 1` puts the runtime's series.
pub fn shard0(name: &str) -> String {
    format!("{name}{{shard=\"0\"}}")
}

/// A shard-0 summary quantile, e.g. `shard0_quantile(name, "0.5")`.
pub fn shard0_quantile(name: &str, q: &str) -> String {
    format!("{name}{{shard=\"0\",quantile=\"{q}\"}}")
}

/// Sum over daemons of `after − before` for one series.
///
/// # Errors
///
/// The series is missing on some daemon.
pub fn delta_metric(before: &[Scrape], after: &[Scrape], key: &str) -> Result<f64, String> {
    before
        .iter()
        .zip(after)
        .try_fold(0.0, |acc, (b, a)| Ok(acc + a.metric(key)? - b.metric(key)?))
}

/// Sum over daemons of `after − before` for one statistic.
///
/// # Errors
///
/// The statistic is missing on some daemon.
pub fn delta_stat(before: &[Scrape], after: &[Scrape], key: &str) -> Result<f64, String> {
    before
        .iter()
        .zip(after)
        .try_fold(0.0, |acc, (b, a)| Ok(acc + a.stat(key)? - b.stat(key)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: &str = include_str!("../testdata/metrics.txt");
    const SNAPSHOT: &str = include_str!("../testdata/snapshot.json");

    #[test]
    fn parses_captured_metrics() {
        let m = parse_metrics(METRICS).unwrap();
        let s = Scrape {
            metrics: m,
            ..Scrape::default()
        };
        // The runtime's series live under shard="0"; the unlabelled
        // copies stay at zero.
        assert!(s.metric(&shard0("ar_node_tokens_rx_total")).unwrap() > 0.0);
        assert_eq!(s.metric("ar_node_tokens_rx_total").unwrap(), 0.0);
        let p50 = s
            .metric(&shard0_quantile("ar_node_token_rotation_ns", "0.5"))
            .unwrap();
        let p99 = s
            .metric(&shard0_quantile("ar_node_token_rotation_ns", "0.99"))
            .unwrap();
        assert!(p50 > 0.0 && p99 >= p50);
        assert!(s.metric(&shard0("ar_node_deliveries_total")).unwrap() > 0.0);
        // The transport's decode-drop counter is the unlabelled one.
        assert!(s.metrics.contains_key("ar_node_wire_decode_drops_total"));
        assert!(s.metrics.contains_key("ar_svc_credits_deferred"));
        assert!(s.metric("ar_no_such_series").is_err());
    }

    #[test]
    fn parses_captured_snapshot() {
        let stats = parse_snapshot_stats(SNAPSHOT).unwrap();
        let s = Scrape {
            stats,
            ..Scrape::default()
        };
        assert!(s.stat("tokens_handled_total").unwrap() > 0.0);
        assert!(s.stat("messages_initiated_total").unwrap() > 0.0);
        assert_eq!(s.stat("gathers_started_total").unwrap(), 0.0);
        assert!(s.stat("no_such_stat").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_metrics("ar_x_total\n").is_err());
        assert!(parse_metrics("ar_x_total abc\n").is_err());
        assert!(parse_snapshot_stats("{\"metrics\":{}}").is_err());
        assert!(parse_snapshot_stats("{").is_err());
    }

    #[test]
    fn deltas_sum_over_daemons() {
        let scrape = |v: f64| Scrape {
            metrics: parse_metrics(&format!("a_total {v}\n")).unwrap(),
            stats: [("s".to_string(), v * 2.0)].into_iter().collect(),
        };
        let before = [scrape(1.0), scrape(10.0)];
        let after = [scrape(4.0), scrape(12.0)];
        assert_eq!(delta_metric(&before, &after, "a_total").unwrap(), 5.0);
        assert_eq!(delta_stat(&before, &after, "s").unwrap(), 10.0);
        assert!(delta_metric(&before, &after, "b_total").is_err());
    }
}
