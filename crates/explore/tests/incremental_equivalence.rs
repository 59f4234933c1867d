//! Incremental evaluation is an optimization, never a semantic: every row
//! produced through shared phase-artifact prefixes must be bit-identical
//! to the from-scratch pipeline (`--incremental=off`) and to the core
//! per-point path. These properties sweep random grids through both pool
//! paths, walk the degenerate `cycles_per_item == 0` clamp, and check the
//! prefix cache really was live (`pipeline.prefix.hit` > 0) while it
//! happened.

use adhls_core::dse::{evaluate_point, DsePoint};
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::refine::Evaluator;
use adhls_explore::sweep::SweepCell;
use adhls_explore::SweepGrid;
use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpKind};
use adhls_reslib::tsmc90;
use adhls_telemetry::Registry;
use proptest::prelude::*;

/// The synthetic workload the other equivalence suites use: a
/// multiply-multiply-add chain whose latency budget arrives as soft
/// states, so each cycle budget is a distinct design (and prefix).
fn build_cell(cell: &SweepCell) -> Design {
    let mut b = DesignBuilder::new("inc");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let m1 = b.binop(OpKind::Mul, x, y, 8);
    let m2 = b.binop(OpKind::Mul, m1, x, 8);
    let a = b.binop(OpKind::Add, m1, m2, 16);
    b.soft_waits(cell.cycles.saturating_sub(1));
    b.write("z", a);
    b.finish().unwrap()
}

/// Distinct clocks and cycle budgets from raw seeds (duplicates removed so
/// prefix-consult arithmetic below stays exact).
fn grid_from(clock_seeds: &[u16], cycle_seeds: &[u16]) -> SweepGrid {
    let mut clocks: Vec<u64> = clock_seeds
        .iter()
        .map(|&s| 1100 + 140 * u64::from(s % 10))
        .collect();
    clocks.sort_unstable();
    clocks.dedup();
    let mut cycles: Vec<u32> = cycle_seeds.iter().map(|&s| 2 + u32::from(s % 7)).collect();
    cycles.sort_unstable();
    cycles.dedup();
    SweepGrid::new().clocks_ps(clocks).cycles(cycles)
}

fn pool(threads: usize, incremental: bool) -> EvaluatorPool {
    EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads,
            skip_infeasible: true,
            incremental,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pool sweeps: prefix-shared rows are bit-identical to from-scratch
    /// rows and to the core per-point path, serially and in parallel,
    /// skips included.
    #[test]
    fn engine_incremental_rows_equal_from_scratch(
        clock_seeds in prop::collection::vec(0u16..10, 2..5),
        cycle_seeds in prop::collection::vec(0u16..7, 2..5),
        threads in 1usize..4,
    ) {
        let lib = tsmc90::library();
        let points = grid_from(&clock_seeds, &cycle_seeds)
            .expand("inc", build_cell)
            .expect("grid expands");

        let a = pool(threads, true).evaluate(&points).expect("incremental sweep runs");
        let b = pool(threads, false).evaluate(&points).expect("from-scratch sweep runs");
        prop_assert_eq!(&a.rows, &b.rows, "prefix sharing changed a row");
        prop_assert_eq!(&a.skipped, &b.skipped);

        // The core per-point path agrees too (and with the parallel rows).
        let core: Vec<_> = points
            .iter()
            .filter_map(|p| evaluate_point(p, &lib, &HlsOptions::default()).ok())
            .collect();
        prop_assert_eq!(&core, &a.rows);
        prop_assert!(!a.rows.is_empty());
    }

    /// Pool sweeps: same contract through the persistent evaluator pool,
    /// with the meters on to prove the prefix cache was actually consulted
    /// — every cell after the first at a given cycle budget shares that
    /// budget's prefix, so hits are exactly `points - distinct designs`.
    #[test]
    fn pool_incremental_rows_equal_from_scratch_and_prefixes_hit(
        clock_seeds in prop::collection::vec(0u16..10, 2..5),
        cycle_seeds in prop::collection::vec(0u16..7, 2..5),
        threads in 1usize..4,
    ) {
        let grid = grid_from(&clock_seeds, &cycle_seeds);
        let points = grid.expand("inc", build_cell).expect("grid expands");
        let designs: usize = grid.cycles_axis().len();

        let registry = Registry::new();
        registry.set_enabled(true);
        // One metered worker: two workers racing on the same missing prefix
        // both (benignly) count a miss, so exact consult arithmetic needs a
        // serial pool. The from-scratch pool keeps the random thread count,
        // so the comparison still crosses worker interleavings.
        let mk = |incremental, threads, registry| {
            EvaluatorPool::with_telemetry(
                tsmc90::library(),
                HlsOptions::default(),
                PoolOptions {
                    threads,
                    skip_infeasible: true,
                    incremental,
                    ..Default::default()
                },
                registry,
            )
        };
        let warm = mk(true, 1, registry.clone());
        let cold = mk(false, threads, Registry::new());

        let a = warm.evaluate_points(&points).expect("incremental sweep runs");
        let b = cold.evaluate_points(&points).expect("from-scratch sweep runs");
        prop_assert_eq!(&a.rows, &b.rows, "prefix sharing changed a row");
        prop_assert_eq!(&a.skipped, &b.skipped);

        let snap = warm.metrics_snapshot();
        prop_assert_eq!(snap.counter("pipeline.prefix.miss"), Some(designs as u64));
        prop_assert_eq!(
            snap.counter("pipeline.prefix.hit"),
            Some((points.len() - designs) as u64)
        );
        if points.len() > designs {
            prop_assert!(snap.counter("pipeline.prefix.hit").unwrap_or(0) > 0);
        }
        // From-scratch evaluation never touches the prefix cache.
        prop_assert!(cold.metrics_snapshot().counter("pipeline.prefix.miss").is_none());
    }
}

/// The degenerate `cycles_per_item == 0` point exercises the clamp at the
/// head of evaluation (a zero interval counts as one cycle so throughput
/// stays finite); the clamp must land identically on both paths.
#[test]
fn degenerate_zero_cycles_per_item_clamps_identically() {
    let lib = tsmc90::library();
    let cell = SweepCell {
        clock_ps: 1200,
        cycles: 3,
        pipeline_ii: None,
    };
    let point = DsePoint {
        name: "inc-degenerate".to_string(),
        design: build_cell(&cell),
        clock_ps: cell.clock_ps,
        pipeline_ii: None,
        cycles_per_item: 0,
    };
    let points = vec![point];
    let warm = pool(1, true)
        .evaluate(&points)
        .expect("degenerate point schedules");
    let cold = pool(1, false)
        .evaluate(&points)
        .expect("degenerate point schedules");
    assert_eq!(warm.rows, cold.rows);
    let core = evaluate_point(&points[0], &lib, &HlsOptions::default());
    assert_eq!(warm.rows, vec![core.expect("degenerate point schedules")]);
    let row = &warm.rows[0];
    assert!(
        row.throughput.is_finite() && row.throughput > 0.0,
        "clamped throughput must stay finite, got {}",
        row.throughput
    );
}
