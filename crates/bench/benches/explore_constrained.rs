//! Constrained and multi-plane exploration vs the exhaustive baseline on
//! the 70-cell IDCT-1D grid — the `--constraint` / multi-plane
//! `--objectives` counterpart of `explore_adaptive` and `explore_power`.
//!
//! Tracks the constrained-exploration tentpole's claims:
//!
//! * a constrained refinement (`area<=A`, `power<=P`) reaches exactly the
//!   feasible slice of the plane front with measurably fewer evaluations
//!   than the exhaustive-sweep-plus-filter baseline (provably-infeasible
//!   cells are skipped, optimistic bounds prune over-budget interiors),
//! * a one-pass two-plane `refine_multi` over `[area,latency]` +
//!   `[area,power]` costs less than the sum of the two dedicated runs,
//!   because every evaluation is shared across the planes.

use adhls_explore::constraint::Constraint;
use adhls_explore::pareto::{pareto_front_in_constrained, ObjectiveSpace};
use adhls_explore::refine::{refine, refine_multi, RefineOptions};
use adhls_explore::{EvaluatorPool, PoolOptions, SweepCell, SweepGrid};
use adhls_workloads::idct;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn grid() -> SweepGrid {
    SweepGrid::new()
        .clocks_ps([1400, 1550, 1700, 1850, 2000, 2200, 2400, 2600, 2900, 3200])
        .cycles([4, 6, 8, 10, 12, 14, 16])
}

fn build(cell: &SweepCell) -> adhls_ir::Design {
    idct::build_1d(cell.cycles)
}

/// Budgets cutting through the middle of the grid's front (picked from
/// the probe the acceptance test repeats: median front area, upper-
/// quartile front power).
fn constraints() -> Vec<Constraint> {
    vec![
        Constraint::parse("area<=20100").expect("valid constraint"),
        Constraint::parse("power<=7005").expect("valid constraint"),
    ]
}

fn pool() -> EvaluatorPool {
    adhls_bench::pool(PoolOptions {
        skip_infeasible: true,
        ..Default::default()
    })
}

fn bench(c: &mut Criterion) {
    let _metrics = adhls_bench::metrics_dump("explore_constrained");
    let grid = grid();
    let space = ObjectiveSpace::parse("area,latency,power").expect("valid space");
    let cs = constraints();
    let points = grid.expand("idct", build).expect("grid expands");
    println!("IDCT-1D grid: {} cells, bounds {:?}", points.len(), cs);

    // Baseline: evaluate every cell, filter the front afterwards.
    c.bench_function("constrained/idct1d_exhaustive_sweep_plus_filter", |b| {
        b.iter(|| {
            let rows = pool().evaluate(&points).expect("sweep runs").rows;
            black_box(pareto_front_in_constrained(&space, &cs, &rows).len())
        })
    });

    // Constrained refinement: the same feasible slice, fewer evaluations.
    c.bench_function("constrained/idct1d_constrained_refine", |b| {
        b.iter(|| {
            let r = refine(
                &pool(),
                &grid,
                "idct",
                build,
                &RefineOptions {
                    objectives: space.clone(),
                    constraints: cs.clone(),
                    ..Default::default()
                },
            )
            .expect("constrained refinement runs");
            black_box((r.evaluated, r.front.len()))
        })
    });

    // One pass over two planes vs two cold dedicated runs.
    let planes = ObjectiveSpace::parse_multi("area,latency;area,power").expect("valid planes");
    c.bench_function("constrained/idct1d_two_plane_refine_one_pass", |b| {
        b.iter(|| {
            let r = refine_multi(
                &pool(),
                &grid,
                "idct",
                build,
                &RefineOptions::default(),
                &planes,
            )
            .expect("multi-plane refinement runs");
            black_box((r.evaluated, r.planes.len()))
        })
    });
    c.bench_function("constrained/idct1d_two_plane_refine_two_passes", |b| {
        b.iter(|| {
            let mut evaluated = 0;
            for plane in &planes {
                let r = refine(
                    &pool(),
                    &grid,
                    "idct",
                    build,
                    &RefineOptions {
                        objectives: plane.clone(),
                        ..Default::default()
                    },
                )
                .expect("single-plane refinement runs");
                evaluated += r.evaluated;
            }
            black_box(evaluated)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
