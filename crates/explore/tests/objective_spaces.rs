//! Backward-equivalence and round-trip properties of the objective-space
//! redesign.
//!
//! The redesign's contract: under the default spaces, every surface is
//! bit-identical to the pre-redesign API. This file pins that three ways:
//!
//! * **reference reimplementation** — the pre-redesign hard-coded
//!   four-objective dominance/front and (area, latency) staircase are
//!   reimplemented here verbatim and proptested against the space-
//!   parameterized canonical API on random row sets,
//! * **default-space refinement** — `refine` with `RefineOptions::default()`
//!   is bit-identical (rows, front, trace, everything) to an explicit
//!   `[Area, LatencyPs]` space on random grids,
//! * **warm-start round-trip** — a front exported under a non-default
//!   space records its objectives, `WarmStart::parse` recovers them, and
//!   the cells safely seed a refinement steered by a different space.

use adhls_core::dse::DseRow;
use adhls_core::power::PowerReport;
use adhls_core::sched::HlsOptions;
use adhls_explore::export::{front_to_json_in, refine_to_json};
use adhls_explore::pareto::{
    objectives, pareto_front, pareto_front_in, tradeoff_staircase, tradeoff_staircase_in,
    Objective, ObjectiveSpace, Objectives,
};
use adhls_explore::refine::{refine, RefineOptions, WarmStart};
use adhls_explore::sweep::SweepCell;
use adhls_explore::{EvaluatorPool, PoolOptions, SweepGrid};
use adhls_ir::builder::DesignBuilder;
use adhls_ir::{Design, OpKind};
use adhls_reslib::tsmc90;
use proptest::prelude::*;
use std::cmp::Ordering;

/// A synthetic row from small integer objective seeds; coarse quantization
/// makes duplicate objective vectors (the tie cases) likely.
fn row(i: usize, area_s: u16, lat_s: u16, pow_s: u16) -> DseRow {
    let area = f64::from(area_s % 8 + 1) * 100.0;
    let latency_ps = f64::from(lat_s % 8 + 1) * 500.0;
    let power = f64::from(pow_s % 8 + 1) * 2.5;
    DseRow {
        name: format!("p{i}"),
        a_conv: area * 1.2,
        a_slack: area,
        save_pct: 10.0,
        power: PowerReport {
            dynamic: power * 0.8,
            leakage: power * 0.2,
            total: power,
        },
        throughput: 1.0e6 / latency_ps,
        latency_ps,
        clock_ps: 1000,
    }
}

fn rows_from(seeds: &[(u16, u16, u16)]) -> Vec<DseRow> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &(a, l, p))| row(i, a, l, p))
        .collect()
}

/// The pre-redesign four-objective dominance, verbatim.
fn ref_dominates(a: &Objectives, b: &Objectives) -> bool {
    let no_worse = a.area <= b.area
        && a.latency_ps <= b.latency_ps
        && a.power <= b.power
        && a.throughput >= b.throughput;
    let strictly_better = a.area < b.area
        || a.latency_ps < b.latency_ps
        || a.power < b.power
        || a.throughput > b.throughput;
    no_worse && strictly_better
}

/// The pre-redesign `pareto_front`, verbatim: non-dominated under all four
/// objectives, sorted by (area, latency, power, name).
fn ref_pareto_front(rows: &[DseRow]) -> Vec<DseRow> {
    let objs: Vec<Objectives> = rows.iter().map(objectives).collect();
    let order_key = |ra: &DseRow, oa: &Objectives, rb: &DseRow, ob: &Objectives| -> Ordering {
        oa.area
            .total_cmp(&ob.area)
            .then(oa.latency_ps.total_cmp(&ob.latency_ps))
            .then(oa.power.total_cmp(&ob.power))
            .then(ra.name.cmp(&rb.name))
    };
    let mut front: Vec<usize> = (0..rows.len())
        .filter(|&i| {
            objs[i].is_finite()
                && !objs
                    .iter()
                    .enumerate()
                    .any(|(j, oj)| j != i && oj.is_finite() && ref_dominates(oj, &objs[i]))
        })
        .collect();
    front.sort_by(|&i, &j| order_key(&rows[i], &objs[i], &rows[j], &objs[j]));
    front.into_iter().map(|i| rows[i].clone()).collect()
}

/// The pre-redesign `tradeoff_staircase`, verbatim: sorted by
/// (area, latency, name, index), keep rows with strictly better latency.
fn ref_staircase(rows: &[DseRow]) -> Vec<DseRow> {
    let objs: Vec<Objectives> = rows.iter().map(objectives).collect();
    let mut idx: Vec<usize> = (0..rows.len()).filter(|&i| objs[i].is_finite()).collect();
    idx.sort_by(|&i, &j| {
        objs[i]
            .area
            .total_cmp(&objs[j].area)
            .then(objs[i].latency_ps.total_cmp(&objs[j].latency_ps))
            .then(rows[i].name.cmp(&rows[j].name))
            .then(i.cmp(&j))
    });
    let mut out = Vec::new();
    let mut best_lat = f64::INFINITY;
    for i in idx {
        if objs[i].latency_ps < best_lat {
            best_lat = objs[i].latency_ps;
            out.push(rows[i].clone());
        }
    }
    out
}

/// Cheap synthetic workload with a real area/latency/power tradeoff.
fn build_cell(cell: &SweepCell) -> Design {
    let mut b = DesignBuilder::new("syn");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let m1 = b.binop(OpKind::Mul, x, y, 8);
    let m2 = b.binop(OpKind::Mul, m1, x, 8);
    let a = b.binop(OpKind::Add, m1, m2, 16);
    b.soft_waits(cell.cycles.saturating_sub(1));
    b.write("z", a);
    b.finish().unwrap()
}

fn pool() -> EvaluatorPool {
    EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            skip_infeasible: true,
            ..Default::default()
        },
    )
}

fn grid_from(clock_seeds: &[u16], cycle_seeds: &[u16]) -> SweepGrid {
    let clocks: Vec<u64> = clock_seeds
        .iter()
        .map(|&s| 1100 + 140 * u64::from(s % 10))
        .collect();
    let cycles: Vec<u32> = cycle_seeds.iter().map(|&s| 2 + u32::from(s % 7)).collect();
    SweepGrid::new().clocks_ps(clocks).cycles(cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The default `pareto_front` wrapper reproduces the pre-redesign
    /// four-objective front bit for bit, and so does the canonical call
    /// with `ObjectiveSpace::full()`.
    #[test]
    fn default_front_matches_the_pre_redesign_reference(
        seeds in prop::collection::vec((0u16..64, 0u16..64, 0u16..64), 1..40),
    ) {
        let rows = rows_from(&seeds);
        let reference = ref_pareto_front(&rows);
        prop_assert_eq!(&pareto_front(&rows), &reference);
        prop_assert_eq!(&pareto_front_in(&ObjectiveSpace::full(), &rows), &reference);
    }

    /// The default `tradeoff_staircase` wrapper reproduces the
    /// pre-redesign (area, latency) staircase bit for bit, and so does the
    /// canonical call with the default space.
    #[test]
    fn default_staircase_matches_the_pre_redesign_reference(
        seeds in prop::collection::vec((0u16..64, 0u16..64, 0u16..64), 1..40),
    ) {
        let rows = rows_from(&seeds);
        let reference = ref_staircase(&rows);
        prop_assert_eq!(&tradeoff_staircase(&rows), &reference);
        prop_assert_eq!(
            &tradeoff_staircase_in(&ObjectiveSpace::default(), &rows),
            &reference
        );
    }

    /// Refinement with default options is bit-identical to an explicitly
    /// selected `[Area, LatencyPs]` space — the default space *is* the
    /// pre-redesign steering plane, not merely close to it.
    #[test]
    fn default_refinement_is_the_explicit_tradeoff_space(
        clock_seeds in prop::collection::vec(0u16..10, 2..5),
        cycle_seeds in prop::collection::vec(0u16..7, 2..5),
    ) {
        let g = grid_from(&clock_seeds, &cycle_seeds);
        let implicit = refine(
            &pool(), &g, "syn", build_cell,
            &RefineOptions { gap_tol: 0.1, ..Default::default() },
        ).expect("implicit run");
        let explicit = refine(
            &pool(), &g, "syn", build_cell,
            &RefineOptions {
                gap_tol: 0.1,
                objectives: ObjectiveSpace::new([Objective::Area, Objective::LatencyPs]).unwrap(),
                ..Default::default()
            },
        ).expect("explicit run");
        prop_assert_eq!(&implicit, &explicit);
        // ... and its reported front is the pre-redesign full-objective
        // front over the same rows.
        prop_assert_eq!(&implicit.front, &ref_pareto_front(&implicit.rows));
    }
}

#[test]
fn warm_start_round_trips_fronts_exported_under_a_non_default_space() {
    let g = SweepGrid::new()
        .clocks_ps([1100, 1250, 1400, 1600, 1800])
        .cycles([2, 3, 4, 6]);
    let power_space = ObjectiveSpace::parse("area,power").unwrap();
    let power_run = refine(
        &pool(),
        &g,
        "syn",
        build_cell,
        &RefineOptions {
            gap_tol: 0.2,
            objectives: power_space.clone(),
            ..Default::default()
        },
    )
    .expect("power-plane refinement runs");

    // The refine export records the steering space, and the warm-start
    // parser recovers it together with the cells.
    let exported = refine_to_json(&power_run);
    let warm = WarmStart::parse(&exported).expect("export parses back");
    assert_eq!(warm.objectives, Some(power_space.clone()));
    assert!(!warm.cells.is_empty());

    // So does a plain front document exported under the same space.
    let front_doc = front_to_json_in(&power_run.rows, &power_run.front, &power_space);
    let warm2 = WarmStart::parse(&front_doc).expect("front document parses back");
    assert_eq!(warm2.objectives, Some(power_space));

    // The cells are space-independent grid coordinates: seeding a
    // *default-space* refinement with them only adds evaluations — every
    // warm cell is evaluated up front, and nothing the cold seed would
    // have evaluated is lost.
    let cold = refine(
        &pool(),
        &g,
        "syn",
        build_cell,
        &RefineOptions {
            gap_tol: 0.1,
            ..Default::default()
        },
    )
    .expect("cold default run");
    let warm_run = refine(
        &pool(),
        &g,
        "syn",
        build_cell,
        &RefineOptions {
            gap_tol: 0.1,
            warm_start: warm.cells.clone(),
            ..Default::default()
        },
    )
    .expect("warm default run");
    assert!(
        warm_run.trace[0].new_points >= cold.trace[0].new_points,
        "warm seed is a superset of the cold seed"
    );
    for cell in &warm.cells {
        let name = adhls_core::dse::DsePoint::grid_name(
            "syn",
            cell.clock_ps,
            cell.cycles,
            cell.pipeline_ii,
        );
        assert!(
            warm_run.rows.iter().any(|r| r.name == name)
                || warm_run.skipped.iter().any(|(n, _)| *n == name),
            "warm cell {name} was not submitted in the warm run"
        );
    }
    // The warm front never misses structure the cold front resolved: each
    // cold front point is equalled or beaten (in the full space) by some
    // warm front point.
    for c in &cold.front {
        let oc = objectives(c);
        assert!(
            warm_run.front.iter().any(|w| {
                let ow = objectives(w);
                ow == oc || adhls_explore::dominates(&ow, &oc)
            }),
            "cold front point {} lost by warm-starting",
            c.name
        );
    }
}
