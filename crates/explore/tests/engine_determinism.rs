//! The pool's headline contract on real workloads: a parallel sweep over
//! ≥ 12 design points returns bit-identical rows to serial evaluation —
//! the core per-point path, the independent from-scratch oracle — while
//! using more than one worker thread.

use adhls_core::dse::{evaluate_point, explore};
use adhls_core::sched::HlsOptions;
use adhls_explore::{pareto_front, EvaluatorPool, PoolOptions};
use adhls_reslib::tsmc90;
use adhls_workloads::sweep;

fn pool(threads: usize, skip_infeasible: bool) -> EvaluatorPool {
    EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads,
            skip_infeasible,
            ..Default::default()
        },
    )
}

#[test]
fn interpolation_fleet_parallel_equals_serial() {
    let lib = tsmc90::library();
    let points = sweep::interpolation_default();
    assert!(
        points.len() >= 12,
        "need a dozen points, got {}",
        points.len()
    );
    let s = explore(&points, &lib, &HlsOptions::default()).expect("serial sweep schedules");
    let p = pool(4, false)
        .evaluate(&points)
        .expect("parallel sweep schedules");
    assert!(p.workers > 1, "expected >1 worker, got {}", p.workers);
    assert_eq!(p.rows, s, "parallel rows must be bit-identical to serial");
    // The front is non-empty and identical through either path.
    let front = pareto_front(&p.rows);
    assert!(!front.is_empty());
    assert_eq!(front, pareto_front(&s));
}

#[test]
fn random_fleet_parallel_equals_serial_with_skips() {
    // Random customer designs include overconstrained corners; the
    // skip-infeasible policy must make the same deterministic decisions as
    // serial per-point evaluation.
    let lib = tsmc90::library();
    let points = sweep::random_fleet(12, 42);
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for p in &points {
        match evaluate_point(p, &lib, &HlsOptions::default()) {
            Ok(row) => rows.push(row),
            Err(e) => skipped.push((p.name.clone(), e.to_string())),
        }
    }
    let s = pool(1, true)
        .evaluate(&points)
        .expect("skip policy cannot fail");
    let p = pool(4, true)
        .evaluate(&points)
        .expect("skip policy cannot fail");
    assert_eq!(p.rows, rows);
    assert_eq!(p.skipped, skipped);
    assert_eq!(s.rows, rows);
    assert_eq!(s.skipped, skipped);
    assert!(
        !p.rows.is_empty(),
        "expected most random designs to schedule"
    );
}

#[test]
fn repeat_parallel_runs_are_stable_and_cached() {
    let points = sweep::interpolation_default();
    let pool = pool(3, false);
    let first = pool.evaluate(&points).expect("sweep schedules");
    let second = pool.evaluate(&points).expect("sweep schedules");
    assert_eq!(first.rows, second.rows);
    assert_eq!(
        second.cache_hits,
        points.len() as u64,
        "second pass is all cache hits"
    );
}
