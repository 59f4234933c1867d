//! Benchmark harness library (bench targets live under benches/).
//!
//! [`metrics_dump`] gives every bench target one uniform way to record a
//! telemetry snapshot next to its timings: when `ADHLS_BENCH_METRICS_DIR`
//! is set (`benches/record.sh` sets it), the global registry is enabled
//! for the bench binary's lifetime and its snapshot is written to
//! `<dir>/<bench>.metrics.json` when the guard drops. Without the
//! variable the guard is inert and the benches run unmetered, exactly as
//! before.
//!
//! [`pool`] builds the evaluator every exploration bench times.

#![warn(missing_docs)]

use adhls_core::sched::HlsOptions;
use adhls_explore::{EvaluatorPool, PoolOptions};
use std::path::PathBuf;

/// A fresh evaluator pool over the TSMC-90 library and default HLS
/// options. It records into the global registry, so a recording run
/// ([`metrics_dump`]) captures its pool and pipeline metrics; unmetered
/// runs see a disabled registry and record nothing.
#[must_use]
pub fn pool(opts: PoolOptions) -> EvaluatorPool {
    EvaluatorPool::with_telemetry(
        adhls_reslib::tsmc90::library(),
        HlsOptions::default(),
        opts,
        adhls_telemetry::global().clone(),
    )
}

/// Guard returned by [`metrics_dump`]; writes the global registry's
/// snapshot to the recording directory on drop.
#[derive(Debug)]
pub struct MetricsDump {
    out: Option<PathBuf>,
}

/// Enables global telemetry and schedules a `<bench>.metrics.json` dump
/// if `ADHLS_BENCH_METRICS_DIR` is set; an inert guard otherwise.
#[must_use]
pub fn metrics_dump(bench: &str) -> MetricsDump {
    let Some(dir) = std::env::var_os("ADHLS_BENCH_METRICS_DIR") else {
        return MetricsDump { out: None };
    };
    adhls_telemetry::global().set_enabled(true);
    MetricsDump {
        out: Some(PathBuf::from(dir).join(format!("{bench}.metrics.json"))),
    }
}

impl Drop for MetricsDump {
    fn drop(&mut self) {
        let Some(path) = self.out.take() else { return };
        let mut snap = adhls_telemetry::global().snapshot();
        snap.sort();
        let mut json = snap.render_json();
        json.push('\n');
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("metrics dump to {} failed: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_the_env_var_the_guard_is_inert() {
        // The test runner does not set ADHLS_BENCH_METRICS_DIR, so this
        // must neither enable telemetry nor try to write anywhere.
        let guard = metrics_dump("unit");
        assert!(guard.out.is_none());
        drop(guard);
        assert!(!adhls_telemetry::global().is_enabled());
    }
}
