//! Adaptive refinement vs the exhaustive sweep, and the persistent pool's
//! warm-cache fast path.
//!
//! Tracks the tentpole's two claims: refinement reaches the tradeoff
//! staircase with a fraction of the grid's evaluations, and a pool that
//! outlives requests answers repeat refinements from its cache. The 1-D
//! IDCT keeps a single evaluation cheap enough for stable samples; the
//! grid matches the acceptance test in `adhls-explore`.

use adhls_bench::pool;
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

fn skip_infeasible() -> PoolOptions {
    PoolOptions {
        skip_infeasible: true,
        ..Default::default()
    }
}

fn bench(c: &mut Criterion) {
    let _metrics = adhls_bench::metrics_dump("explore_adaptive");
    let grid = grid();
    let points = grid.expand("idct", build).expect("grid expands");
    println!("IDCT-1D grid: {} cells", points.len());

    c.bench_function("adaptive/idct1d_exhaustive_sweep", |b| {
        b.iter(|| {
            let rows = pool(skip_infeasible())
                .evaluate(&points)
                .expect("sweep runs")
                .rows;
            black_box(rows.len())
        })
    });

    c.bench_function("adaptive/idct1d_refine_cold", |b| {
        b.iter(|| {
            let r = refine(
                &pool(skip_infeasible()),
                &grid,
                "idct",
                build,
                &RefineOptions::default(),
            )
            .expect("refinement runs");
            black_box((r.evaluated, r.front.len()))
        })
    });

    // The serving path: the pool (and its cache) outlives requests.
    let warm = pool(skip_infeasible());
    refine(&warm, &grid, "idct", build, &RefineOptions::default()).expect("warmup");
    c.bench_function("adaptive/idct1d_refine_warm_pool", |b| {
        b.iter(|| {
            let r = refine(&warm, &grid, "idct", build, &RefineOptions::default())
                .expect("refinement runs");
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
