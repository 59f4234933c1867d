//! Incremental-evaluation payoff: per-cell sweep cost through shared
//! phase-artifact prefixes vs the from-scratch pipeline
//! (`--incremental=off`) on IDCT-1D and FIR grids.
//!
//! Each grid holds few distinct designs and many clock/II cells per
//! design — the shape real explorations have — so the prepared prefix
//! (elaboration, timed DFG, mobility bounds, clock contexts) amortizes
//! across cells. Rows are bit-identical on both paths (asserted below
//! before timing starts, alongside prefix-cache activity); only the cost
//! moves. Measured per-cell cost reduction on these grids is ~2×: the
//! prefix (elaboration + per-pass bounds/timed-DFG rebuilds + first-restart
//! budgeting) is about half of a from-scratch cell, and the remainder —
//! the relaxation passes themselves — is per-cell work both paths must
//! pay. Tracked per PR in `BENCH_<n>.json`.

use adhls_core::dse::DsePoint;
use adhls_explore::{EvaluatorPool, PoolOptions};
use adhls_workloads::{fir, idct};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// IDCT-1D cells: one design per latency budget, fanned across clocks and
/// initiation intervals (clock/II live in the options, so every cell of a
/// budget shares one prefix).
fn idct1d_grid() -> Vec<DsePoint> {
    let mut pts = Vec::new();
    for &cycles in &[12u32, 16] {
        let design = idct::build_1d(cycles);
        for &clock in &[1800u64, 2200, 2600, 3000] {
            for &ii in &[None, Some(4)] {
                pts.push(DsePoint::grid("idct1d", design.clone(), clock, cycles, ii));
            }
        }
    }
    pts
}

/// FIR cells: 8-tap filter at two latency budgets, fanned across clocks.
fn fir_grid() -> Vec<DsePoint> {
    let mut pts = Vec::new();
    for &cycles in &[8u32, 12] {
        let design = fir::build(&fir::FirConfig {
            coeffs: vec![3, -5, 11, 7, 2, -9, 6, 1],
            cycles,
            width: 16,
        });
        for &clock in &[1400u64, 1800, 2200, 2600] {
            pts.push(DsePoint::grid("fir", design.clone(), clock, cycles, None));
        }
    }
    pts
}

fn serial_pool(incremental: bool) -> EvaluatorPool {
    adhls_bench::pool(PoolOptions {
        threads: 1,
        incremental,
        ..Default::default()
    })
}

fn bench(c: &mut Criterion) {
    let _metrics = adhls_bench::metrics_dump("explore_incremental");

    for (grid_name, points) in [("idct1d", idct1d_grid()), ("fir", fir_grid())] {
        // The contract first, the clock second: both paths must produce
        // bit-identical rows, and the prefix cache must actually have been
        // consulted (hits > 0) while the incremental sweep ran.
        let was = adhls_telemetry::global().is_enabled();
        adhls_telemetry::global().set_enabled(true);
        let before = adhls_telemetry::global().snapshot();
        let warm_rows = serial_pool(true)
            .evaluate(&points)
            .expect("grid schedules")
            .rows;
        let after = adhls_telemetry::global().snapshot();
        adhls_telemetry::global().set_enabled(was);
        let cold_rows = serial_pool(false)
            .evaluate(&points)
            .expect("grid schedules")
            .rows;
        assert_eq!(warm_rows, cold_rows, "{grid_name}: rows must not move");
        let hits = after.counter("pipeline.prefix.hit").unwrap_or(0)
            - before.counter("pipeline.prefix.hit").unwrap_or(0);
        assert!(hits > 0, "{grid_name}: prefix cache never hit");
        println!(
            "{grid_name}: {} cells, {} prefix hits, rows bit-identical",
            points.len(),
            hits
        );

        // Fresh pool per iteration: the result cache must not answer for
        // the pipeline, and the prefix cache starts empty so the measured
        // sharing is purely within-sweep — what one `adhls explore` run sees.
        c.bench_function(&format!("explore/{grid_name}_incremental"), |b| {
            b.iter(|| {
                black_box(
                    serial_pool(true)
                        .evaluate(&points)
                        .expect("grid schedules")
                        .rows
                        .len(),
                )
            })
        });
        c.bench_function(&format!("explore/{grid_name}_scratch"), |b| {
            b.iter(|| {
                black_box(
                    serial_pool(false)
                        .evaluate(&points)
                        .expect("grid schedules")
                        .rows
                        .len(),
                )
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
