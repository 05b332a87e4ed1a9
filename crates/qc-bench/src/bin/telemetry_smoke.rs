//! `telemetry_smoke` — schema validator for the telemetry artifacts the
//! CLI emits (`--metrics-json`, `--flight-recorder`, `--prom`).
//!
//! ```sh
//! relcont serve ... --metrics-json m.json --flight-recorder f.json
//! cargo run --release -p qc-bench --bin telemetry_smoke -- \
//!     --metrics m.json --flight f.json
//! ```
//!
//! Checks, exiting 1 on the first class of violation found:
//!
//! - the metrics JSON has a `histograms` object carrying every serve
//!   latency histogram (queue-wait, execute, end-to-end) with numeric
//!   `p50`/`p90`/`p99`/`p999` quantiles;
//! - the flight dump is a non-empty array whose entries each carry a
//!   `t-`-prefixed trace, an outcome, and numeric timing fields — and the
//!   traces of *terminal* entries are unique (`panic_retry` is a
//!   supervision event, not a terminal state, so its trace legitimately
//!   reappears on the retry's terminal entry);
//! - (optional, `--prom`) the Prometheus exposition declares a
//!   `histogram`-typed family per latency histogram with `+Inf` bucket,
//!   `_sum`, and `_count` lines.

use std::process::ExitCode;

use serde_json::Value;

/// Serve-side latency histograms the metrics export must always carry
/// (empty or not) — `Histograms::to_json` emits the full schema.
const SERVE_HISTS: [&str; 3] = ["serve_queue_wait_ns", "serve_execute_ns", "serve_e2e_ns"];

const QUANTILES: [&str; 4] = ["p50", "p90", "p99", "p999"];

/// Durability / coalescing counters that must appear in the Prometheus
/// exposition even at zero (`prometheus_text` emits every counter).
const DURABILITY_COUNTERS: [&str; 6] = [
    "serve_coalesced_hits",
    "serve_checkpoint_rejected",
    "journal_appends",
    "journal_retired",
    "journal_replayed",
    "journal_compactions",
];

/// Catalog-churn counters (epoch bumps and precise invalidation) that
/// must likewise be declared even at zero.
const CATALOG_COUNTERS: [&str; 7] = [
    "catalog_epoch_bumps",
    "catalog_epoch_views_recompiled",
    "catalog_epoch_views_reused",
    "invalidation_verdicts_dropped",
    "invalidation_checkpoints_dropped",
    "invalidation_stale_epoch_rejected",
    "serve_verdict_cache_hits",
];

fn is_number(v: &Value) -> bool {
    matches!(v, Value::UInt(_) | Value::Int(_) | Value::Float(_))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Every serve histogram present with all four numeric quantiles.
fn check_metrics(metrics: &Value) -> Result<usize, String> {
    let hists = metrics.get_field("histograms");
    let Value::Object(_) = hists else {
        return Err("metrics JSON: missing \"histograms\" object".into());
    };
    for name in SERVE_HISTS {
        let snap = hists.get_field(name);
        if matches!(snap, Value::Null) {
            return Err(format!("metrics JSON: histogram {name:?} missing"));
        }
        for q in QUANTILES {
            if !is_number(snap.get_field(q)) {
                return Err(format!("metrics JSON: {name}.{q} is not numeric"));
            }
        }
        if !is_number(snap.get_field("count")) {
            return Err(format!("metrics JSON: {name}.count is not numeric"));
        }
    }
    Ok(SERVE_HISTS.len())
}

/// Non-empty dump; per-entry schema; terminal-trace uniqueness.
fn check_flight(flight: &Value) -> Result<usize, String> {
    let Some(entries) = flight.as_array() else {
        return Err("flight dump: not a JSON array".into());
    };
    if entries.is_empty() {
        return Err("flight dump: empty (expected at least one timeline)".into());
    }
    let mut terminal_traces: Vec<String> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let Some(trace) = e.get_field("trace").as_str() else {
            return Err(format!("flight dump: entry {i} has no trace string"));
        };
        if !trace.starts_with("t-") {
            return Err(format!(
                "flight dump: entry {i} trace {trace:?} lacks the t- prefix"
            ));
        }
        let Some(outcome) = e.get_field("outcome").as_str() else {
            return Err(format!("flight dump: entry {i} has no outcome string"));
        };
        for field in ["queue_wait_ns", "execute_ns", "total_ns", "consumed"] {
            if !is_number(e.get_field(field)) {
                return Err(format!("flight dump: entry {i} {field} is not numeric"));
            }
        }
        if outcome != "panic_retry" {
            terminal_traces.push(trace.to_string());
        }
    }
    let unique = terminal_traces.len();
    let mut sorted = terminal_traces;
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != unique {
        return Err(format!(
            "flight dump: terminal traces not unique ({unique} entries, {} distinct)",
            sorted.len()
        ));
    }
    Ok(entries.len())
}

/// Histogram families declared with bucket/sum/count lines, plus the
/// durability counters (present even at zero).
fn check_prom(text: &str) -> Result<usize, String> {
    for name in SERVE_HISTS {
        let family = format!("relcont_{name}");
        if !text.contains(&format!("# TYPE {family} histogram")) {
            return Err(format!(
                "prom text: missing histogram TYPE line for {family}"
            ));
        }
        for suffix in ["_bucket{le=\"+Inf\"}", "_sum ", "_count "] {
            if !text.contains(&format!("{family}{suffix}")) {
                return Err(format!("prom text: {family} lacks a {suffix:?} line"));
            }
        }
    }
    for name in DURABILITY_COUNTERS.iter().chain(&CATALOG_COUNTERS) {
        let family = format!("relcont_{name}");
        if !text.contains(&format!("# TYPE {family} counter")) {
            return Err(format!("prom text: missing counter TYPE line for {family}"));
        }
        if !text.contains(&format!("{family} ")) {
            return Err(format!("prom text: {family} has no sample line"));
        }
    }
    Ok(SERVE_HISTS.len() + DURABILITY_COUNTERS.len() + CATALOG_COUNTERS.len())
}

fn main() -> ExitCode {
    let mut metrics_path: Option<String> = None;
    let mut flight_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics" => metrics_path = args.next(),
            "--flight" => flight_path = args.next(),
            "--prom" => prom_path = args.next(),
            other => {
                eprintln!(
                    "unknown flag {other} (expected --metrics PATH, --flight PATH, --prom PATH)"
                );
                return ExitCode::from(2);
            }
        }
    }
    if metrics_path.is_none() && flight_path.is_none() && prom_path.is_none() {
        eprintln!("usage: telemetry_smoke [--metrics PATH] [--flight PATH] [--prom PATH]");
        return ExitCode::from(2);
    }
    let run = || -> Result<(), String> {
        if let Some(path) = &metrics_path {
            let n = check_metrics(&load(path)?)?;
            eprintln!("ok metrics: {n} serve histograms with full quantile sets");
        }
        if let Some(path) = &flight_path {
            let n = check_flight(&load(path)?)?;
            eprintln!("ok flight: {n} timeline(s), terminal traces unique");
        }
        if let Some(path) = &prom_path {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let n = check_prom(&text)?;
            eprintln!("ok prom: {n} metric families exposed");
        }
        Ok(())
    };
    match run() {
        Ok(()) => {
            eprintln!("telemetry smoke passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("telemetry smoke FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_snap() -> String {
        "{\"count\": 1, \"sum\": 5, \"min\": 5, \"max\": 5, \
          \"p50\": 7, \"p90\": 7, \"p99\": 7, \"p999\": 7, \"buckets\": []}"
            .to_string()
    }

    fn metrics_with_all() -> Value {
        let fields: Vec<String> = SERVE_HISTS
            .iter()
            .map(|n| format!("\"{n}\": {}", hist_snap()))
            .collect();
        let text = format!("{{\"histograms\": {{{}}}}}", fields.join(", "));
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn metrics_schema_accepts_full_and_rejects_partial() {
        assert_eq!(check_metrics(&metrics_with_all()).unwrap(), 3);
        let missing: Value = serde_json::from_str("{\"histograms\": {}}").unwrap();
        assert!(check_metrics(&missing).unwrap_err().contains("missing"));
        let no_key: Value = serde_json::from_str("{}").unwrap();
        assert!(check_metrics(&no_key).is_err());
    }

    #[test]
    fn flight_schema_and_terminal_uniqueness() {
        let entry = |trace: &str, outcome: &str| {
            format!(
                "{{\"trace\": \"{trace}\", \"outcome\": \"{outcome}\", \
                  \"queue_wait_ns\": 1, \"execute_ns\": 2, \"total_ns\": 3, \
                  \"consumed\": 0}}"
            )
        };
        let good: Value = serde_json::from_str(&format!(
            "[{}, {}, {}]",
            entry("t-00000001", "panic_retry"),
            entry("t-00000001", "contained"),
            entry("t-00000002", "shed"),
        ))
        .unwrap();
        assert_eq!(check_flight(&good).unwrap(), 3);

        let dup: Value = serde_json::from_str(&format!(
            "[{}, {}]",
            entry("t-00000003", "contained"),
            entry("t-00000003", "contained"),
        ))
        .unwrap();
        assert!(check_flight(&dup).unwrap_err().contains("not unique"));

        let empty: Value = serde_json::from_str("[]").unwrap();
        assert!(check_flight(&empty).is_err());

        let bad_trace: Value =
            serde_json::from_str(&format!("[{}]", entry("x-1", "contained"))).unwrap();
        assert!(check_flight(&bad_trace).unwrap_err().contains("t- prefix"));
    }

    #[test]
    fn prom_families_must_be_complete() {
        let mut text = String::new();
        for name in SERVE_HISTS {
            let f = format!("relcont_{name}");
            text.push_str(&format!(
                "# TYPE {f} histogram\n{f}_bucket{{le=\"+Inf\"}} 0\n{f}_sum 0\n{f}_count 0\n"
            ));
        }
        // Histograms alone no longer pass: the durability counters must
        // be exposed too, zero-valued or not.
        assert!(check_prom(&text).unwrap_err().contains("counter TYPE line"));
        for name in DURABILITY_COUNTERS {
            let f = format!("relcont_{name}");
            text.push_str(&format!("# TYPE {f} counter\n{f} 0\n"));
        }
        // Likewise the catalog-churn counter families.
        assert!(check_prom(&text).unwrap_err().contains("counter TYPE line"));
        for name in CATALOG_COUNTERS {
            let f = format!("relcont_{name}");
            text.push_str(&format!("# TYPE {f} counter\n{f} 0\n"));
        }
        assert_eq!(check_prom(&text).unwrap(), 16);
        assert!(check_prom("").unwrap_err().contains("TYPE"));
    }
}
