//! CSV export for experiment results.
//!
//! Every experiment binary prints human-readable tables; when
//! `IPFS_REPRO_CSV_DIR` is set, they additionally write machine-readable
//! CSV so plots can be regenerated outside this repository.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Where CSVs go, if anywhere: the `IPFS_REPRO_CSV_DIR` directory.
pub fn csv_dir() -> Option<PathBuf> {
    std::env::var("IPFS_REPRO_CSV_DIR").ok().map(PathBuf::from)
}

/// Escapes one CSV field (RFC 4180: quote when needed, double quotes).
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders rows to CSV text.
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|f| escape(f)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Writes `<name>.csv` into the export directory, if configured. Returns
/// the path written, or `None` when exporting is off. IO errors are
/// reported to stderr but never fail the experiment.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> Option<PathBuf> {
    write_into(&csv_dir()?, name, "csv", &to_csv(headers, rows))
}

/// Writes `contents` to `<dir>/<name>.<ext>`, creating `dir` if needed.
/// Returns the path written; IO errors are reported to stderr and yield
/// `None`.
fn write_into(dir: &Path, name: &str, ext: &str, contents: &str) -> Option<PathBuf> {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("{ext} export: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.{ext}"));
    match fs::File::create(&path).and_then(|mut f| f.write_all(contents.as_bytes())) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("{ext} export: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// One stitched distributed trace collected by a harness cell, ready for
/// the `--trace-out` exemplar dump.
#[derive(Debug, Clone)]
pub struct TraceExemplar {
    /// End-to-end op duration in integer nanoseconds (the sort key).
    pub dur_nanos: u64,
    /// The op's id (deterministic tie-break).
    pub op: u64,
    /// The rendered exemplar object
    /// ([`ipfs_core::obs::dtrace::exemplar_json`]).
    pub json: String,
}

/// Picks the `n` slowest ops across all cells — sorted by duration
/// descending, then cell index, then op id, so the selection is
/// byte-identical at any job count — and renders the `--trace-out`
/// JSON document.
pub fn render_trace_exemplars(
    harness: &str,
    seed: u64,
    cells: &[&[TraceExemplar]],
    n: usize,
) -> String {
    let mut all: Vec<(u64, usize, u64, &str)> = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        for e in cell.iter() {
            all.push((e.dur_nanos, ci, e.op, e.json.as_str()));
        }
    }
    all.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    all.truncate(n);
    let entries: Vec<String> = all.iter().map(|(_, _, _, j)| format!("    {j}")).collect();
    format!(
        "{{\n  \"harness\": \"{harness}\",\n  \"seed\": {seed},\n  \"slowest\": {},\n  \"traces\": [\n{}\n  ]\n}}\n",
        entries.len(),
        entries.join(",\n")
    )
}

/// Convenience: exports a series of (x, y) points.
pub fn write_series_csv(
    name: &str,
    x_label: &str,
    y_label: &str,
    points: &[(f64, f64)],
) -> Option<PathBuf> {
    let rows: Vec<Vec<String>> =
        points.iter().map(|(x, y)| vec![format!("{x}"), format!("{y}")]).collect();
    write_csv(name, &[x_label, y_label], &rows)
}

/// Writes `<name>.json` into the export directory, if configured. `json`
/// must already be serialized (e.g. [`ipfs_core::MetricsRegistry::to_json`]
/// or [`ipfs_core::OpTrace::to_json`]). Same error policy as
/// [`write_csv`]: IO failures are reported, never fatal.
pub fn write_json(name: &str, json: &str) -> Option<PathBuf> {
    write_into(&csv_dir()?, name, "json", json)
}

/// Renders a human-readable report of a metrics registry: every counter,
/// then an n/mean/p50/p90/p99 row per histogram. Uses
/// [`ipfs_core::MetricsRegistry::histogram_stats`], so both exact and
/// log-bucketed streaming histograms are covered (exact-mode values match
/// the old raw-sample summaries bit for bit — same nearest-rank formula).
pub fn metrics_report(metrics: &ipfs_core::MetricsRegistry) -> String {
    let mut out = String::from("== counters ==\n");
    for (name, value) in metrics.counters() {
        out.push_str(&format!("{name:<40} {value}\n"));
    }
    out.push_str("== histograms ==\n");
    for (name, s) in metrics.histogram_stats() {
        out.push_str(&format!(
            "{name:<40} n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3}\n",
            s.n, s.mean, s.p50, s.p90, s.p99
        ));
    }
    out
}

/// Exports a [`ipfs_core::TimeSeries`] as `<name>.csv`, one row per
/// (window, metric): counters carry `value`, histogram families carry
/// `n/mean/p50/p90/p99`. Rows are ordered by window then kind then name,
/// so the file is deterministic for a deterministically built series.
pub fn write_timeseries_csv(name: &str, ts: &ipfs_core::TimeSeries) -> Option<PathBuf> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for idx in ts.window_indices() {
        let start = ts.window_start_secs(idx);
        for (metric, value) in ts.counters_in(idx) {
            rows.push(vec![
                format!("{start}"),
                "counter".into(),
                metric.to_string(),
                value.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for (metric, samples) in ts.samples_in(idx) {
            let s = crate::stats::Summary::of(samples);
            rows.push(vec![
                format!("{start}"),
                "histogram".into(),
                metric.to_string(),
                String::new(),
                s.n.to_string(),
                format!("{:.6}", s.mean),
                format!("{:.6}", s.p50),
                format!("{:.6}", s.p90),
                format!("{:.6}", s.p99),
            ]);
        }
    }
    write_csv(
        name,
        &["window_start_secs", "kind", "name", "value", "n", "mean", "p50", "p90", "p99"],
        &rows,
    )
}

/// Renders the fault-injection section of a report: every `fault_*`
/// counter plus a summary of the `fault_recovery_secs` histogram
/// (time-to-first-successful-retrieval after heal). Empty string when the
/// run injected no faults, so plain runs stay byte-identical.
pub fn fault_report(metrics: &ipfs_core::MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, value) in metrics.counters_with_prefix("fault_") {
        out.push_str(&format!("{name:<40} {value}\n"));
    }
    let recovery = metrics.samples(ipfs_core::obs::names::FAULT_RECOVERY_SECS);
    if !recovery.is_empty() {
        let s = crate::stats::Summary::of(recovery);
        out.push_str(&format!(
            "{:<40} n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3}\n",
            "fault_recovery_secs", s.n, s.mean, s.p50, s.p90, s.p99
        ));
    }
    if out.is_empty() {
        out
    } else {
        format!("== faults ==\n{out}")
    }
}

/// Exports a metrics registry as both `<name>.json` and `<name>.csv`
/// (counter rows), if exporting is configured.
pub fn write_metrics(name: &str, metrics: &ipfs_core::MetricsRegistry) -> Option<PathBuf> {
    let rows: Vec<Vec<String>> =
        metrics.to_csv_rows().into_iter().map(|(k, v)| vec![k, v.to_string()]).collect();
    write_csv(name, &["metric", "value"], &rows);
    write_json(name, &metrics.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering_and_escaping() {
        let csv = to_csv(
            &["region", "value"],
            &[
                vec!["eu_central_1".into(), "1.81".into()],
                vec!["with,comma".into(), "with\"quote".into()],
            ],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "region,value");
        assert_eq!(lines[1], "eu_central_1,1.81");
        assert_eq!(lines[2], "\"with,comma\",\"with\"\"quote\"");
    }

    #[test]
    fn metrics_report_lists_counters_and_summaries() {
        let mut m = ipfs_core::MetricsRegistry::new();
        m.add("dials_ok", 7);
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.observe("dht_walk_rpcs", v);
        }
        let report = metrics_report(&m);
        assert!(report.contains("dials_ok"));
        assert!(report.contains('7'));
        assert!(report.contains("dht_walk_rpcs"));
        assert!(report.contains("n=4"));
    }

    #[test]
    fn fault_report_is_empty_without_faults_and_lists_fault_counters() {
        let mut m = ipfs_core::MetricsRegistry::new();
        m.add("dials_ok", 3);
        assert_eq!(fault_report(&m), "", "no fault counters, no section");
        m.incr("fault_partition_starts");
        m.add("fault_dials_blocked", 12);
        m.observe("fault_recovery_secs", 4.5);
        let report = fault_report(&m);
        assert!(report.starts_with("== faults =="));
        assert!(report.contains("fault_partition_starts"));
        assert!(report.contains("fault_dials_blocked"));
        assert!(report.contains("fault_recovery_secs"));
        assert!(!report.contains("dials_ok"));
    }

    #[test]
    fn no_dir_no_write() {
        // With the env var unset, write_csv is a no-op returning None.
        if std::env::var("IPFS_REPRO_CSV_DIR").is_err() {
            assert!(write_csv("x", &["a"], &[]).is_none());
        }
    }

    #[test]
    fn writes_into_configured_dir() {
        // The directory is passed in, so no test touches the process
        // environment that other tests in this binary read concurrently.
        let dir = std::env::temp_dir()
            .join(format!("ipfs-repro-csv-{}", std::process::id()))
            .join("nested");
        let csv = to_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let path = write_into(&dir, "unit_test", "csv", &csv).expect("written");
        assert_eq!(path, dir.join("unit_test.csv"));
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        let path = write_into(&dir, "unit_test", "json", "{}\n").expect("written");
        assert_eq!(fs::read_to_string(&path).unwrap(), "{}\n");
        let _ = fs::remove_dir_all(dir.parent().unwrap());
    }
}
