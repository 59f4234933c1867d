//! Parallel Pareto exploration of the interpolation kernel.
//!
//! Expands a clock × latency grid, fans the sweep across worker threads,
//! extracts the (area, latency, power, throughput) Pareto front, and shows
//! that the memo cache makes the second pass free.
//!
//! Run: `cargo run --release --example explore_pareto`

use adhls::explore::export::rows_to_csv;
use adhls::prelude::*;
use adhls::workloads::sweep;

fn main() {
    let points = sweep::interpolation_default();
    println!("sweeping {} interpolation design points\n", points.len());

    let pool = EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 4,
            ..Default::default()
        },
    );
    let t0 = std::time::Instant::now();
    let result = pool.evaluate(&points).expect("default grid schedules");
    let t_cold = t0.elapsed();
    let t1 = std::time::Instant::now();
    let again = pool.evaluate(&points).expect("cached re-sweep");
    let t_warm = t1.elapsed();
    assert_eq!(result.rows, again.rows, "pool results are deterministic");

    let front = pareto_front(&result.rows);
    println!(
        "Pareto front ({} of {} points):",
        front.len(),
        result.rows.len()
    );
    for r in &front {
        println!(
            "  {:<18} area {:>7.0}  power {:>7.1}  {:>7.2} items/us",
            r.name, r.a_slack, r.power.total, r.throughput
        );
    }
    println!(
        "\n{} workers: cold sweep {t_cold:.2?}, cached re-sweep {t_warm:.2?} ({} hits)",
        result.workers, again.cache_hits
    );
    println!("\nCSV of the full sweep:\n{}", rows_to_csv(&result.rows));
}
