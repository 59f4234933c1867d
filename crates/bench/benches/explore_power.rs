//! Power-aware adaptive refinement vs the exhaustive sweep on the 70-cell
//! IDCT-1D grid — the `--objectives area,power` counterpart of
//! `explore_adaptive`.
//!
//! Tracks the objective-space tentpole's claim: steering refinement
//! through the (area, power) plane reaches the exhaustive plane front with
//! a fraction of the grid's evaluations, even though neither plane axis is
//! closed-form (the single-point-staircase densification path is what this
//! exercises). The warm-pool case tracks the serving path, where a second
//! power-aware request answers from cache.

use adhls_bench::pool;
use adhls_explore::pareto::{pareto_front_in, ObjectiveSpace};
use adhls_explore::pool::PoolOptions;
use adhls_explore::refine::{refine, RefineOptions};
use adhls_explore::{SweepCell, SweepGrid};
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

fn power_opts() -> RefineOptions {
    RefineOptions {
        objectives: ObjectiveSpace::parse("area,power").expect("valid plane"),
        ..Default::default()
    }
}

fn skip_infeasible() -> PoolOptions {
    PoolOptions {
        skip_infeasible: true,
        ..Default::default()
    }
}

fn bench(c: &mut Criterion) {
    let _metrics = adhls_bench::metrics_dump("explore_power");
    let grid = grid();
    let space = ObjectiveSpace::parse("area,power").expect("valid plane");
    let points = grid.expand("idct", build).expect("grid expands");
    println!("IDCT-1D grid: {} cells, plane ({space})", points.len());

    c.bench_function("power/idct1d_exhaustive_sweep_with_plane_front", |b| {
        b.iter(|| {
            let rows = pool(skip_infeasible())
                .evaluate(&points)
                .expect("sweep runs")
                .rows;
            black_box(pareto_front_in(&space, &rows).len())
        })
    });

    c.bench_function("power/idct1d_refine_cold", |b| {
        b.iter(|| {
            let r = refine(
                &pool(skip_infeasible()),
                &grid,
                "idct",
                build,
                &power_opts(),
            )
            .expect("power-aware refinement runs");
            black_box((r.evaluated, r.front.len()))
        })
    });

    // The serving path: the pool (and its cache) outlives requests.
    let warm = pool(skip_infeasible());
    refine(&warm, &grid, "idct", build, &power_opts()).expect("warmup");
    c.bench_function("power/idct1d_refine_warm_pool", |b| {
        b.iter(|| {
            let r = refine(&warm, &grid, "idct", build, &power_opts())
                .expect("power-aware refinement runs");
            black_box((r.evaluated, r.front.len()))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
