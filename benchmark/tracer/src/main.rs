//! Traced replay of one benchmark workload through the adhls library layers.
//!
//! ```text
//! adhls-benchmark-tracer --setup <file> --stream <file> --threads <n>
//!                        [--cache-bytes <n>] --out <file> [--responses <file>]
//! ```
//!
//! `setup` and `stream` hold protocol request lines (`sweep`/`refine`), the
//! same lines the benchmark sends to `adhls serve` or, for the Table 4 batch,
//! the one `sweep` the CLI runs. Each line is replayed twice per pass: once
//! through `Server::handle_line` (the session layer), and once layer by layer
//! — expansion, `EvaluatorPool::evaluate`, `refine_multi` and Pareto
//! extraction — with a span around each call. The core phases the pool runs
//! (both scheduler flows, bind, area, power, whole-cell evaluation,
//! `PreparedDesign::new`) are already timed by the pool's own registry as
//! `pipeline.*` histograms, and are read from its snapshot. Only the layers
//! it does not time get a span of their own, once for every design or clock
//! the pool has not seen yet: `Design::validate`, and the initial budgeting
//! and slack analysis.
//!
//! Six passes over fresh pools: untraced and traced passes at `--threads`,
//! alternating twice (their stream wall times give the tracing overhead),
//! then two single-thread count passes whose deterministic work counts must
//! agree.
//! Spans live in memory and are written to `--out` at the end, beside the
//! pool's own telemetry snapshot. Nothing is traced inside the program.

use adhls_core::dse::DsePoint;
use adhls_core::{run_hls_prepared, Flow, HlsOptions, PreparedDesign};
use adhls_explore::fingerprint::design_fingerprint;
use adhls_explore::pareto::{pareto_front_in_constrained, tradeoff_staircase_in_constrained};
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::refine::{refine_multi, Evaluator, RefineOptions};
use adhls_explore::server::protocol::{parse_request, Command};
use adhls_explore::server::{
    refine_spaces, sweep_points, sweep_spaces, validate_spec_constraints, workload_grid, Server,
    WorkloadSpec,
};
use adhls_explore::{ObjectiveSpace, SweepCell, SweepResult};
use adhls_telemetry::{Registry, Snapshot};
use adhls_timing::budget::budget_with_choices;
use adhls_timing::slack::{compute_slack, SlackMode};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One timed call: name, start and end in microseconds since the pass
/// began, the enclosing span, and the request it belongs to.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: usize,
}

/// In-memory span log. When `on` is false, entering and leaving a span
/// costs nothing, which is what the untraced pass measures against.
struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: usize,
}

impl Trace {
    fn new(on: bool) -> Self {
        Trace {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        Some(id)
    }

    fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_us = self.now_us();
            self.stack.pop();
        }
    }
}

/// Deterministic work counts of one pass (stream requests only).
#[derive(Default, Clone, PartialEq, Eq)]
struct Counts {
    relax_rounds_conv: u64,
    relax_rounds_slack: u64,
    infeasible: u64,
    core_cells: u64,
    designs_prepared: u64,
    prepare_bytes: u64,
    pool_points: u64,
    refine_rounds: u64,
    refine_evaluated: u64,
    refine_pruned: u64,
    requests_ok: u64,
    requests_failed: u64,
}

impl Counts {
    fn fields(&self) -> [(&'static str, u64); 12] {
        [
            ("sched.relax_rounds.conv", self.relax_rounds_conv),
            ("sched.relax_rounds.slack", self.relax_rounds_slack),
            ("sched.infeasible", self.infeasible),
            ("core.cells", self.core_cells),
            ("prepare.designs", self.designs_prepared),
            ("prepare.bytes", self.prepare_bytes),
            ("pool.points", self.pool_points),
            ("refine.rounds", self.refine_rounds),
            ("refine.evaluated", self.refine_evaluated),
            ("refine.pruned", self.refine_pruned),
            ("requests.ok", self.requests_ok),
            ("requests.failed", self.requests_failed),
        ]
    }
}

/// A cell as the pool's result cache keys it: design fingerprint, name,
/// clock, initiation interval and cycles per item.
type CellKey = (u64, String, u64, Option<u32>, u32);

/// What a pass is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// No spans and no pool telemetry: the base of the tracing overhead.
    Untraced,
    /// Spans and pool telemetry: the per-layer times.
    Traced,
    /// Single-thread pool telemetry and relaxation rounds, no session
    /// layer: the deterministic work counts.
    Count,
}

/// One replay pass: a fresh layered pool, a fresh in-process server, and
/// the memo of cells, designs and clocks the layered pool has already seen
/// (so the untimed layers run once for each, as they do behind the pool's
/// caches).
struct Replay {
    trace: RefCell<Trace>,
    counts: RefCell<Counts>,
    lib: adhls_reslib::Library,
    base: HlsOptions,
    pool: EvaluatorPool,
    server: Server,
    seen_cells: RefCell<HashSet<CellKey>>,
    seen_clocks: RefCell<HashSet<(u64, u64)>>,
    prepared: RefCell<HashMap<u64, Option<Arc<PreparedDesign>>>>,
    responses: RefCell<Vec<u8>>,
    kind: Pass,
}

impl Replay {
    fn new(threads: usize, cache_bytes: Option<usize>, kind: Pass) -> Self {
        let opts = PoolOptions {
            threads,
            skip_infeasible: true,
            cache_bytes,
            ..PoolOptions::default()
        };
        let registry = Registry::new();
        registry.set_enabled(kind != Pass::Untraced);
        let lib = adhls_reslib::tsmc90::library();
        let pool = EvaluatorPool::with_telemetry(
            lib.clone(),
            HlsOptions::default(),
            opts.clone(),
            registry,
        );
        let server = Server::new(EvaluatorPool::new(lib.clone(), HlsOptions::default(), opts));
        Replay {
            trace: RefCell::new(Trace::new(kind == Pass::Traced)),
            counts: RefCell::new(Counts::default()),
            lib,
            base: HlsOptions::default(),
            pool,
            server,
            seen_cells: RefCell::new(HashSet::new()),
            seen_clocks: RefCell::new(HashSet::new()),
            prepared: RefCell::new(HashMap::new()),
            responses: RefCell::new(Vec::new()),
            kind,
        }
    }

    fn timed<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.trace.borrow_mut().enter(name);
        let r = f();
        self.trace.borrow_mut().exit(id);
        r
    }

    /// The prepared prefix of `p`'s design, validated and built once per
    /// design, as the pool's prefix cache does. `None` when the design is
    /// malformed. The build itself is not timed: the pool's own
    /// `pipeline.elab` histogram gives `PreparedDesign::new`'s cost.
    fn prepare(&self, p: &DsePoint) -> Option<Arc<PreparedDesign>> {
        let fp = design_fingerprint(&p.design);
        if let Some(prep) = self.prepared.borrow().get(&fp) {
            return prep.clone();
        }
        let valid = self.timed("ir.validate", || p.design.validate()).is_ok();
        let prep = valid
            .then(|| PreparedDesign::new(&p.design, &self.lib).ok())
            .flatten()
            .map(Arc::new);
        if let Some(prep) = &prep {
            let mut c = self.counts.borrow_mut();
            c.designs_prepared += 1;
            c.prepare_bytes += prep.approx_bytes() as u64;
        }
        self.prepared.borrow_mut().insert(fp, prep.clone());
        prep
    }

    /// The layers the pool's registry does not time, for one cell the pool
    /// has not evaluated yet: validation (once per design) and the initial
    /// budgeting and slack analysis (once per design and clock, the
    /// granularity of the prepared design's `ClockContext` cache; the
    /// rebudgets inside the relaxation loop are part of scheduling). Count
    /// passes also run both flows, untimed and outside the pool's registry,
    /// for their relaxation rounds.
    fn replay_cell(&self, p: &DsePoint) {
        let fp = design_fingerprint(&p.design);
        let key = (
            fp,
            p.name.clone(),
            p.clock_ps,
            p.pipeline_ii,
            p.cycles_per_item,
        );
        if !self.seen_cells.borrow_mut().insert(key) {
            return;
        }
        self.counts.borrow_mut().core_cells += 1;
        let id = self.trace.borrow_mut().enter("cell");
        let Some(prep) = self.prepare(p) else {
            self.counts.borrow_mut().infeasible += 1;
            self.trace.borrow_mut().exit(id);
            return;
        };
        let clock = p.clock_ps;
        if self.seen_clocks.borrow_mut().insert((fp, clock)) {
            let budget = self.timed("timing.budget", || {
                budget_with_choices(
                    prep.initial_tdfg(),
                    prep.base_choices(),
                    clock,
                    &self.base.budget,
                    |_| None,
                )
            });
            #[allow(clippy::cast_possible_wrap)]
            let slack = self.timed("timing.slack", || {
                compute_slack(
                    prep.initial_tdfg(),
                    &budget.delays,
                    clock as i64,
                    SlackMode::Aligned,
                )
            });
            black_box((&budget, &slack));
        }
        if self.kind == Pass::Count {
            let opts = |flow| HlsOptions {
                clock_ps: clock,
                flow,
                pipeline_ii: p.pipeline_ii,
                ..self.base.clone()
            };
            let conv = run_hls_prepared(&prep, &self.lib, &opts(Flow::Conventional));
            let slack = run_hls_prepared(&prep, &self.lib, &opts(Flow::SlackBased));
            let mut c = self.counts.borrow_mut();
            if let Ok(r) = &conv {
                c.relax_rounds_conv += u64::from(r.relax_rounds);
            }
            if let Ok(r) = &slack {
                c.relax_rounds_slack += u64::from(r.relax_rounds);
            }
            if conv.is_err() || slack.is_err() {
                c.infeasible += 1;
            }
        }
        self.trace.borrow_mut().exit(id);
    }

    /// The layered evaluator: the untimed layers of new cells, then the pool.
    fn evaluate(&self, points: &[DsePoint]) -> adhls_ir::Result<SweepResult> {
        for p in points {
            self.replay_cell(p);
        }
        self.counts.borrow_mut().pool_points += points.len() as u64;
        self.timed("pool.evaluate", || self.pool.evaluate(points))
    }

    fn extract(
        &self,
        spaces: &[ObjectiveSpace],
        spec: &WorkloadSpec,
        rows: &[adhls_core::dse::DseRow],
    ) {
        for space in spaces {
            let front = self.timed("pareto.front", || {
                pareto_front_in_constrained(space, &spec.constraints, rows)
            });
            let stair = self.timed("pareto.staircase", || {
                tradeoff_staircase_in_constrained(space, &spec.constraints, rows)
            });
            black_box((front, stair));
        }
    }

    fn replay_sweep(&self, spec: &WorkloadSpec) -> Result<(), String> {
        if let Some(source) = &spec.dsl {
            self.timed("ir.compile", || adhls_ir::frontend::compile(source))
                .map_err(|e| format!("dsl: {e}"))?;
        }
        let spaces = sweep_spaces(spec);
        validate_spec_constraints(spec, &spaces)?;
        let points = sweep_points(spec)?;
        let result = self.evaluate(&points).map_err(|e| e.to_string())?;
        self.extract(&spaces, spec, &result.rows);
        Ok(())
    }

    fn replay_refine(
        &self,
        spec: &WorkloadSpec,
        budget: usize,
        gap_tol: f64,
        warm_front: &[String],
    ) -> Result<(), String> {
        let (grid, prefix, build) = workload_grid(spec)?;
        let spaces = refine_spaces(spec)?;
        validate_spec_constraints(spec, &spaces)?;
        let warm_start = warm_front
            .iter()
            .filter_map(|n| DsePoint::parse_grid_name(n))
            .map(|(clock_ps, cycles, pipeline_ii)| SweepCell {
                clock_ps,
                cycles,
                pipeline_ii,
            })
            .collect();
        let opts = RefineOptions {
            budget,
            gap_tol,
            warm_start,
            objectives: spaces[0].clone(),
            constraints: spec.constraints.clone(),
            ..RefineOptions::default()
        };
        let r = self
            .timed("refine", || {
                refine_multi(&Layered(self), &grid, &prefix, build, &opts, &spaces)
            })
            .map_err(|e| e.to_string())?;
        {
            let mut c = self.counts.borrow_mut();
            c.refine_rounds += r.trace.len() as u64;
            c.refine_evaluated += r.evaluated as u64;
            c.refine_pruned += r.pruned as u64;
        }
        self.extract(&[ObjectiveSpace::full()], spec, &r.rows);
        self.extract(&spaces, spec, &r.rows);
        Ok(())
    }

    /// One request line: the session layer, then the layered replay.
    fn replay_line(&self, line: &str) {
        let (_, cmd) = parse_request(line);
        let verb = cmd.as_ref().map_or("invalid", Command::verb);
        let root = self.trace.borrow_mut().enter(&format!("request.{verb}"));
        if self.kind != Pass::Count {
            let mut out = Vec::new();
            self.timed(&format!("session.handle.{verb}"), || {
                self.server.handle_line(line, &mut out)
            })
            .expect("writing to memory cannot fail");
            self.responses.borrow_mut().extend_from_slice(&out);
        }
        let outcome = match cmd {
            Ok(Command::Sweep(spec)) => self.replay_sweep(&spec),
            Ok(Command::Refine {
                spec,
                budget,
                gap_tol,
                warm_front,
            }) => self.replay_refine(&spec, budget, gap_tol, &warm_front),
            Ok(other) => Err(format!(
                "the replay takes sweep/refine, not {}",
                other.verb()
            )),
            Err(e) => Err(e),
        };
        let mut c = self.counts.borrow_mut();
        if let Err(e) = outcome {
            eprintln!("tracer: request failed: {e}");
            c.requests_failed += 1;
        } else {
            c.requests_ok += 1;
        }
        drop(c);
        self.trace.borrow_mut().exit(root);
    }
}

/// `refine_multi`'s evaluator: every batch goes through the layered path,
/// so the refine span's children cover exactly the evaluator's time.
struct Layered<'r>(&'r Replay);

impl Evaluator for Layered<'_> {
    fn evaluate_points(&self, points: &[DsePoint]) -> adhls_ir::Result<SweepResult> {
        self.0.evaluate(points)
    }
}

struct PassOutcome {
    stream_ms: f64,
    total_ms: f64,
    counts: Counts,
    before: Snapshot,
    after: Snapshot,
    replay: Replay,
}

fn run_pass(
    setup: &[String],
    stream: &[String],
    threads: usize,
    cache_bytes: Option<usize>,
    kind: Pass,
) -> PassOutcome {
    let replay = Replay::new(threads, cache_bytes, kind);
    let t0 = Instant::now();
    for (i, line) in setup.iter().enumerate() {
        replay.trace.borrow_mut().request = i;
        replay.replay_line(line);
    }
    // Counts and responses cover the stream only; the setup lines are
    // the warm-up a server pays before the timed window.
    *replay.counts.borrow_mut() = Counts::default();
    replay.responses.borrow_mut().clear();
    let before = replay.pool.metrics_snapshot();
    let t1 = Instant::now();
    for (i, line) in stream.iter().enumerate() {
        replay.trace.borrow_mut().request = setup.len() + i;
        replay.replay_line(line);
    }
    let stream_ms = t1.elapsed().as_secs_f64() * 1e3;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = replay.pool.metrics_snapshot();
    let counts = replay.counts.borrow().clone();
    PassOutcome {
        stream_ms,
        total_ms,
        counts,
        before,
        after,
        replay,
    }
}

fn read_lines(path: &str) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("reading {path}: {e}")))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

fn fail(msg: &str) -> ! {
    eprintln!("adhls-benchmark-tracer: {msg}");
    std::process::exit(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    adhls_core::json::escape_into(&mut out, s);
    out
}

fn counts_json(c: &Counts) -> String {
    let body: Vec<String> = c
        .fields()
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Counter and histogram-sum deltas of the pool's own telemetry over the
/// stream, plus the end-of-stream cache gauges.
fn snapshot_delta(before: &Snapshot, after: &Snapshot) -> String {
    let mut fields: BTreeMap<String, f64> = BTreeMap::new();
    for (name, v) in after.counters() {
        #[allow(clippy::cast_precision_loss)]
        let d = (v - before.counter(name).unwrap_or(0)) as f64;
        fields.insert(format!("counter:{name}"), d);
    }
    for (name, h) in after.histograms() {
        let prev = before
            .histogram(name)
            .map_or((0, 0.0), |p| (p.count, p.sum));
        #[allow(clippy::cast_precision_loss)]
        fields.insert(format!("count:{name}"), (h.count - prev.0) as f64);
        fields.insert(format!("sum:{name}"), h.sum - prev.1);
    }
    for (name, v) in after.gauges() {
        #[allow(clippy::cast_precision_loss)]
        fields.insert(format!("gauge:{name}"), v as f64);
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opt: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(v) = it.next() else {
            fail(&format!("{k} needs a value"))
        };
        opt.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| {
        opt.get(k)
            .copied()
            .unwrap_or_else(|| fail(&format!("missing {k}")))
    };
    let setup = read_lines(get("--setup"));
    let stream = read_lines(get("--stream"));
    let threads: usize = get("--threads")
        .parse()
        .unwrap_or_else(|_| fail("--threads takes a whole number"));
    let cache_bytes: Option<usize> = opt.get("--cache-bytes").map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail("--cache-bytes takes a whole number"))
    });

    // Untraced and traced passes alternate twice; the overhead compares
    // each side's faster stream, which damps one-off scheduling noise.
    let pass = |threads, kind| run_pass(&setup, &stream, threads, cache_bytes, kind);
    let untraced = pass(threads, Pass::Untraced);
    let traced = pass(threads, Pass::Traced);
    let untraced_ms = untraced
        .stream_ms
        .min(pass(threads, Pass::Untraced).stream_ms);
    let traced_ms = traced.stream_ms.min(pass(threads, Pass::Traced).stream_ms);
    let count_a = pass(1, Pass::Count);
    let count_b = pass(1, Pass::Count);

    if let Some(path) = opt.get("--responses") {
        std::fs::write(path, &*traced.replay.responses.borrow())
            .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
    }

    let mut out = String::new();
    out.push('{');
    let _ = write!(
        out,
        "\"threads\":{threads},\"setup_requests\":{},\"stream_requests\":{},",
        setup.len(),
        stream.len()
    );
    let _ = write!(
        out,
        "\"untraced\":{{\"stream_ms\":{untraced_ms},\"total_ms\":{}}},",
        untraced.total_ms
    );
    let _ = write!(
        out,
        "\"traced\":{{\"stream_ms\":{traced_ms},\"total_ms\":{},\"counts\":{},\"pool_delta\":{}}},",
        traced.total_ms,
        counts_json(&traced.counts),
        snapshot_delta(&traced.before, &traced.after)
    );
    for (key, pass) in [("count_a", &count_a), ("count_b", &count_b)] {
        let _ = write!(
            out,
            "\"{key}\":{{\"counts\":{},\"pool_delta\":{}}},",
            counts_json(&pass.counts),
            snapshot_delta(&pass.before, &pass.after)
        );
    }
    let _ = write!(
        out,
        "\"pool_snapshot\":{},",
        traced.replay.pool.metrics_snapshot().render_json()
    );
    out.push_str("\"spans\":[");
    for (i, s) in traced.replay.trace.borrow().spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "[{},{:.3},{:.3},{parent},{}]",
            json_str(&s.name),
            s.start_us,
            s.end_us,
            s.request
        );
    }
    out.push_str("]}\n");
    let path = get("--out");
    std::fs::write(path, out).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
}
