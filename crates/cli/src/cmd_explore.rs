//! `adhls explore` — expand a sweep, fan it across cores through an
//! evaluator pool, report the Pareto front. With `--adaptive`, refine the
//! front through the same pool instead of exhausting the grid.
//!
//! Workload grids and axis validation are shared with the exploration
//! server (`adhls_explore::server::session`), so the CLI and a `refine`
//! request over the wire accept exactly the same inputs.

use crate::opts::{write_out, Opts};
use adhls_core::dse::{summarize, DsePoint, DseRow, DseSummary};
use adhls_core::report::Table;
use adhls_core::sched::HlsOptions;
use adhls_explore::constraint::parse_constraints;
use adhls_explore::export::{
    front_to_json_constrained, fronts_to_json_multi, refine_multi_to_json, refine_to_json,
    rows_to_csv,
};
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::refine::{refine, refine_multi, RefineOptions, WarmStart};
use adhls_explore::server::{
    refine_spaces, sweep_points, sweep_spaces, validate_spec_constraints, workload_grid,
    WorkloadSpec,
};
use adhls_explore::{pareto_front_in_constrained, ObjectiveSpace};

pub fn run(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &[
            "--workload",
            "--clocks",
            "--cycles",
            "--pipeline",
            "--threads",
            "--json",
            "--csv",
            "--dim",
            "--count",
            "--seed",
            "--budget",
            "--gap-tol",
            "--warm-start",
            "--objectives",
            "--constraint",
            "--metrics-out",
        ],
        &[
            "--serial",
            "--skip-infeasible",
            "--front-only",
            "--adaptive",
            "--profile",
            "--incremental",
        ],
    )?;
    // Prefix-artifact reuse across cells: on by default, `--incremental=off`
    // falls back to from-scratch evaluation (rows are bit-identical either
    // way — the switch exists for benchmarking and as an escape hatch).
    let incremental = o.switch("--incremental", true)?;
    // Telemetry observes, never steers: enabling the global registry here
    // changes nothing about the rows or fronts below (the equivalence
    // tests hold the pipeline to that), it only starts the meters.
    if profiling(&o) {
        adhls_telemetry::global().set_enabled(true);
    }
    if o.flag("--adaptive") {
        return run_adaptive(&o);
    }
    for flag in ["--budget", "--gap-tol", "--warm-start"] {
        if o.get(flag).is_some() {
            return Err(format!("{flag} only makes sense with --adaptive"));
        }
    }
    let (points, spec) = build_points(&o)?;
    if points.is_empty() {
        return Err("the sweep is empty (check --clocks/--cycles)".into());
    }
    // The space(s) fronts are reported in: --objectives, else every axis
    // (the same defaulting and constraint validation a `sweep` request
    // gets over the wire).
    let spaces = sweep_spaces(&spec);
    validate_spec_constraints(&spec, &spaces).map_err(with_cli_flags)?;

    let pool = pool(
        &o,
        PoolOptions {
            threads: one_shot_threads(threads(&o)?, points.len()),
            skip_infeasible: o.flag("--skip-infeasible"),
            incremental,
            ..Default::default()
        },
    );
    let t0 = std::time::Instant::now();
    let result = pool.evaluate(&points).map_err(|e| {
        format!("exploration failed: {e} (use --skip-infeasible to drop such points)")
    })?;
    let elapsed = t0.elapsed();

    // One constrained front per requested plane; the first plane is the
    // primary view (the human table's `front` column, the top-level JSON
    // `front`), exactly as over the wire.
    let planes: Vec<(ObjectiveSpace, Vec<DseRow>)> = spaces
        .iter()
        .map(|s| {
            (
                s.clone(),
                pareto_front_in_constrained(s, &spec.constraints, &result.rows),
            )
        })
        .collect();
    let front = &planes[0].1;
    // Exporting to stdout? Keep it machine-readable: the human table would
    // corrupt the JSON/CSV stream a consumer is piping away.
    let exporting_to_stdout = o.get("--json") == Some("-") || o.get("--csv") == Some("-");
    if !exporting_to_stdout {
        print_human(&o, &result.rows, front);
    }
    for (name, why) in &result.skipped {
        eprintln!("skipped {name}: {why}");
    }
    let constrained = if spec.constraints.is_empty() {
        String::new()
    } else {
        let list: Vec<String> = spec.constraints.iter().map(ToString::to_string).collect();
        format!(" [{}]", list.join(", "))
    };
    for (space, front) in &planes {
        eprintln!(
            "{} points ({} skipped), {} on the ({space}){constrained} front; \
             {} workers, {} cache hits, {:.2?}",
            points.len(),
            result.skipped.len(),
            front.len(),
            result.workers,
            result.cache_hits,
            elapsed
        );
    }

    if let Some(path) = o.get("--json") {
        let json = if planes.len() == 1 {
            front_to_json_constrained(&result.rows, front, &planes[0].0, &spec.constraints)
        } else {
            fronts_to_json_multi(&result.rows, &planes, &spec.constraints)
        };
        write_out(path, &json, "sweep JSON")?;
    }
    if let Some(path) = o.get("--csv") {
        write_out(path, &rows_to_csv(&result.rows), "sweep CSV")?;
    }
    crate::profile::emit(&o, pool.metrics_snapshot())?;
    Ok(())
}

/// Whether this run wants telemetry at all (a human table, a JSON export,
/// or both).
fn profiling(o: &Opts) -> bool {
    o.flag("--profile") || o.get("--metrics-out").is_some()
}

/// `--threads` as requested (`0` = every core); `--serial` is exactly
/// `--threads 1`.
fn threads(o: &Opts) -> Result<usize, String> {
    if o.flag("--serial") {
        Ok(1)
    } else {
        o.num("--threads", 0usize)
    }
}

/// The thread count for a one-shot sweep of `points` cells: `requested`
/// with `0` resolved to every core, capped at the point count so no worker
/// is spawned without a point to claim.
pub fn one_shot_threads(requested: usize, points: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    threads.min(points).max(1)
}

/// The evaluator every explore path runs on. When profiling, the pool
/// records into the (enabled) global registry, so its workers' spans land
/// next to the refine driver's counters; otherwise it keeps its private
/// disabled registry and every recording op is a cheap no-op.
fn pool(o: &Opts, opts: PoolOptions) -> EvaluatorPool {
    let (lib, base) = (adhls_reslib::tsmc90::library(), HlsOptions::default());
    if profiling(o) {
        EvaluatorPool::with_telemetry(lib, base, opts, adhls_telemetry::global().clone())
    } else {
        EvaluatorPool::new(lib, base, opts)
    }
}

/// `adhls explore --adaptive`: refine the Pareto front of a workload grid
/// through a persistent evaluator pool instead of sweeping every cell.
fn run_adaptive(o: &Opts) -> Result<(), String> {
    if !o.positional.is_empty() {
        return Err("--adaptive explores workload grids, not DSL files".into());
    }
    // Strict validation: a silently-clamped budget or tolerance would make
    // "why did it stop there?" undebuggable.
    let budget = match o.get("--budget") {
        None => 0,
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("--budget: `{v}` is not a whole number"))?;
            if n == 0 {
                return Err("--budget must be >= 1 (omit it for no budget)".into());
            }
            n
        }
    };
    let gap_tol = match o.get("--gap-tol") {
        None => 0.05,
        Some(v) => {
            let t: f64 = v
                .parse()
                .map_err(|_| format!("--gap-tol: `{v}` is not a number"))?;
            if !t.is_finite() || t < 0.0 {
                return Err(format!("--gap-tol: `{v}` must be a finite number >= 0"));
            }
            t
        }
    };
    if o.get("--workload").is_none() {
        return Err("explore --adaptive needs --workload <name>".into());
    }
    let spec = spec_from_opts(o)?;
    // The plane(s) refinement steers through: --objectives, else the
    // paper's (area, latency) tradeoff (the same defaulting and validation
    // a `refine` request gets over the wire); several `;`-separated planes
    // select the one-pass multi-plane driver.
    let spaces = refine_spaces(&spec).map_err(with_cli_flags)?;
    validate_spec_constraints(&spec, &spaces).map_err(with_cli_flags)?;
    let objectives = spaces[0].clone();
    let warm_start = match o.get("--warm-start") {
        None => Vec::new(),
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("--warm-start: reading {path}: {e}"))?;
            let warm = WarmStart::parse(&json).map_err(|e| format!("--warm-start: {path}: {e}"))?;
            // Cells are grid coordinates, so a front exported under any
            // space seeds any refinement — but say so when they differ.
            match &warm.objectives {
                Some(exported) if *exported != objectives => eprintln!(
                    "warm start: {} grid cells from {path} (exported under ({exported}), \
                     refining ({objectives}))",
                    warm.cells.len()
                ),
                _ => eprintln!("warm start: {} grid cells from {path}", warm.cells.len()),
            }
            warm.cells
        }
    };
    let (grid, prefix, build) = workload_grid(&spec).map_err(with_cli_flags)?;
    if grid.is_empty() {
        return Err("the sweep is empty (check --clocks/--cycles)".into());
    }
    let opts = RefineOptions {
        budget,
        gap_tol,
        warm_start,
        objectives: objectives.clone(),
        constraints: spec.constraints.clone(),
        ..Default::default()
    };
    let pool = pool(
        o,
        PoolOptions {
            threads: threads(o)?,
            skip_infeasible: o.flag("--skip-infeasible"),
            incremental: o.switch("--incremental", true)?,
            ..Default::default()
        },
    );
    let t0 = std::time::Instant::now();
    // One plane reports a single-plane result; several share one pass
    // (the same dispatch a `refine` request gets).
    let outcome = if spaces.len() == 1 {
        refine(&pool, &grid, &prefix, build, &opts).map(RefineOutcome::Single)
    } else {
        refine_multi(&pool, &grid, &prefix, build, &opts, &spaces).map(RefineOutcome::Multi)
    }
    .map_err(|e| {
        format!(
            "adaptive exploration failed: {e} (use --skip-infeasible to drop unschedulable cells)"
        )
    })?;
    let elapsed = t0.elapsed();

    let (rows, front, skipped, evaluated, grid_cells, pruned, rounds) = match &outcome {
        RefineOutcome::Single(r) => (
            &r.rows,
            &r.front,
            &r.skipped,
            r.evaluated,
            r.grid_cells,
            r.pruned,
            r.trace.len().saturating_sub(1),
        ),
        RefineOutcome::Multi(m) => (
            &m.rows,
            &m.front,
            &m.skipped,
            m.evaluated,
            m.grid_cells,
            m.pruned,
            m.trace.len().saturating_sub(1),
        ),
    };
    let exporting_to_stdout = o.get("--json") == Some("-") || o.get("--csv") == Some("-");
    if !exporting_to_stdout {
        print_human(o, rows, front);
    }
    for (name, why) in skipped {
        eprintln!("skipped {name}: {why}");
    }
    let plane_list: Vec<String> = spaces.iter().map(|s| format!("({s})")).collect();
    let constrained = if spec.constraints.is_empty() {
        String::new()
    } else {
        let list: Vec<String> = spec.constraints.iter().map(ToString::to_string).collect();
        format!(" under [{}]", list.join(", "))
    };
    eprintln!(
        "adaptive: {evaluated} of {grid_cells} grid cells evaluated ({pruned} pruned), \
         {} on the front, {rounds} rounds, gap tol {gap_tol} in {}{constrained}, {:.2?}",
        front.len(),
        plane_list.join("+"),
        elapsed
    );

    if let Some(path) = o.get("--json") {
        let json = match &outcome {
            RefineOutcome::Single(r) => refine_to_json(r),
            RefineOutcome::Multi(m) => refine_multi_to_json(m),
        };
        write_out(path, &json, "refinement JSON")?;
    }
    if let Some(path) = o.get("--csv") {
        write_out(path, &rows_to_csv(rows), "sweep CSV")?;
    }
    // The pool appends its cache counters at snapshot time, so the profile
    // carries them too.
    crate::profile::emit(o, pool.metrics_snapshot())?;
    Ok(())
}

/// The two shapes `--adaptive` can produce: one steering plane
/// ([`refine`]) or several sharing one pass ([`refine_multi`]).
enum RefineOutcome {
    Single(adhls_explore::refine::RefineResult),
    Multi(adhls_explore::refine::MultiRefineResult),
}

/// Re-spells the shared validation's wire-field names as the CLI flags the
/// user actually typed (`clocks: …` → `--clocks: …`), so error messages
/// point at something fixable on this surface.
fn with_cli_flags(e: String) -> String {
    // The wire's `constraints` field is the CLI's repeatable singular
    // `--constraint` flag.
    if let Some(rest) = e.strip_prefix("constraints:") {
        return format!("--constraint:{rest}");
    }
    for field in [
        "workload",
        "clocks",
        "cycles",
        "pipeline",
        "dim",
        "count",
        "seed",
        "dsl",
        "objectives",
    ] {
        if let Some(rest) = e.strip_prefix(&format!("{field}:")) {
            return format!("--{field}:{rest}");
        }
    }
    e
}

/// Optional `--key value` number (no default — absence means "workload
/// default").
fn opt_num<T: std::str::FromStr>(o: &Opts, key: &str) -> Result<Option<T>, String> {
    match o.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{key}: `{v}` is not a valid number")),
    }
}

/// The shared workload spec for the flags this command accepts — the same
/// structure a server request parses to, so grid construction and
/// validation have exactly one definition.
fn spec_from_opts(o: &Opts) -> Result<WorkloadSpec, String> {
    Ok(WorkloadSpec {
        workload: o.get("--workload").map(str::to_string),
        dsl: None,
        dsl_prefix: None,
        clocks: o.list::<u64>("--clocks")?,
        cycles: o.list::<u32>("--cycles")?,
        pipeline: o.pipeline_modes()?,
        dim: opt_num(o, "--dim")?,
        count: opt_num(o, "--count")?,
        seed: opt_num(o, "--seed")?,
        // The one shared axis-list grammar (`area,power`, multi-plane
        // `area,latency;area,power`): the same parse a wire request's
        // `objectives` field goes through.
        objectives: o
            .get("--objectives")
            .map(ObjectiveSpace::parse_multi)
            .transpose()
            .map_err(|e| format!("--objectives: {e}"))?,
        // Repeatable `--constraint area<=1500` flags, through the one
        // shared constraint grammar (a wire request's `constraints`).
        constraints: parse_constraints(&o.values("--constraint"))
            .map_err(|e| format!("--constraint: {e}"))?,
    })
}

/// Builds the point fleet from `--workload` (grid axes optional) or from a
/// positional DSL file (clock sweep only), returning the spec alongside so
/// callers can reuse its objective-space selection.
fn build_points(o: &Opts) -> Result<(Vec<DsePoint>, WorkloadSpec), String> {
    let mut spec = spec_from_opts(o)?;
    let points = match (spec.workload.is_some(), o.positional.as_slice()) {
        (true, []) => sweep_points(&spec).map_err(with_cli_flags),
        (false, [path]) => {
            spec.dsl =
                Some(std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?);
            // The file's stem names the points, as before the server
            // existed (the server itself uses the design's own name).
            spec.dsl_prefix = Some(std::path::Path::new(path).file_stem().map_or_else(
                || "design".to_string(),
                |s| s.to_string_lossy().into_owned(),
            ));
            sweep_points(&spec).map_err(|e| format!("{path}: {}", with_cli_flags(e)))
        }
        (true, [_, ..]) => Err("pass either --workload or a DSL file, not both".into()),
        (false, []) => Err("explore needs --workload <name> or a <file.dsl>".into()),
        (false, _) => Err("explore takes at most one DSL file".into()),
    }?;
    Ok((points, spec))
}

fn print_human(o: &Opts, rows: &[DseRow], front: &[DseRow]) {
    let shown: &[DseRow] = if o.flag("--front-only") { front } else { rows };
    let on_front = |r: &DseRow| front.iter().any(|f| f.name == r.name);
    let mut t = Table::new([
        "point", "clock", "A_conv", "A_slack", "save%", "power", "items/us", "front",
    ]);
    for r in shown {
        t.row([
            r.name.clone(),
            r.clock_ps.to_string(),
            format!("{:.0}", r.a_conv),
            format!("{:.0}", r.a_slack),
            format!("{:.1}", r.save_pct),
            format!("{:.1}", r.power.total),
            format!("{:.2}", r.throughput),
            if on_front(r) {
                "*".into()
            } else {
                String::new()
            },
        ]);
    }
    print!("{t}");
    if let Some(s) = summarize(rows) {
        println!(
            "avg save {:.1}% | {} regressions | ranges: {} power, {} throughput, {} area",
            s.avg_save_pct,
            s.regressions,
            DseSummary::fmt_range(s.power_range, 1),
            DseSummary::fmt_range(s.throughput_range, 1),
            DseSummary::fmt_range(s.area_range, 2),
        );
    }
}
