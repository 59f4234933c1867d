//! `adhls schedule <file.dsl>` — compile a DSL design and run one HLS flow.
//! `--netlist <path|->` additionally dumps the Verilog-flavored
//! datapath/FSM sketch `core::netlist` emits (see `docs/NETLIST.md`).

use crate::opts::{parse_flow, write_out, Opts};
use adhls_core::netlist;
use adhls_core::report::Table;
use adhls_core::sched::{run_hls, HlsOptions};
use adhls_ir::frontend;

pub fn run(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &["--clock", "--flow", "--pipeline", "--netlist"],
        &["--json", "--profile"],
    )?;
    let [path] = o.positional.as_slice() else {
        return Err("schedule needs exactly one <file.dsl> argument".into());
    };
    // Both would claim stdout; silently dropping one output is worse than
    // refusing the combination.
    if o.flag("--json") && o.get("--netlist") == Some("-") {
        return Err(
            "--json and --netlist - both write to stdout; send the netlist to a file".into(),
        );
    }
    let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let design = frontend::compile(&source).map_err(|e| format!("{path}: {e}"))?;

    let mut hls = HlsOptions {
        clock_ps: o.num("--clock", 2000u64)?,
        ..Default::default()
    };
    if let Some(f) = o.get("--flow") {
        hls.flow = parse_flow(f)?;
    }
    if let Some(ii) = o.get("--pipeline") {
        hls.pipeline_ii = Some(
            ii.parse()
                .map_err(|_| format!("--pipeline: bad II `{ii}`"))?,
        );
    }

    // Enabled before the run so the pipeline's phase spans land in the
    // global registry; printed right after it so every exit path (table,
    // --json, --netlist -) carries the breakdown on stderr.
    if o.flag("--profile") {
        adhls_telemetry::global().set_enabled(true);
    }
    let lib = adhls_reslib::tsmc90::library();
    let res = run_hls(&design, &lib, &hls).map_err(|e| format!("scheduling failed: {e}"))?;
    crate::profile::emit(&o, adhls_telemetry::global().snapshot())?;

    if let Some(out) = o.get("--netlist") {
        let info = design
            .validate()
            .map_err(|e| format!("validating the design for netlist emission: {e}"))?;
        let text = netlist::emit(&design, &info, &res.schedule, &res.regs);
        write_out(out, &text, "netlist")?;
        // Dumping to stdout? The report table would corrupt the netlist
        // stream a consumer is piping away — same rule as JSON exports.
        if out == "-" {
            return Ok(());
        }
    }

    let n_ops = design.dfg.len_ops();
    let n_insts = res.schedule.allocation.len();
    if o.flag("--json") {
        println!(
            "{{\"design\":\"{}\",\"clock_ps\":{},\"flow\":\"{:?}\",\"ops\":{n_ops},\
             \"instances\":{n_insts},\"area\":{{\"fu\":{},\"regs\":{},\"mux\":{},\
             \"total\":{}}},\"registers\":{},\"relax_rounds\":{}}}",
            design.cfg.name(),
            hls.clock_ps,
            hls.flow,
            res.area.fu,
            res.area.regs,
            res.area.mux,
            res.area.total,
            res.regs.n_regs,
            res.relax_rounds,
        );
        return Ok(());
    }

    println!(
        "design `{}`: {} ops, clock {} ps, {:?} flow",
        design.cfg.name(),
        n_ops,
        hls.clock_ps,
        hls.flow
    );
    let mut t = Table::new(["metric", "value"]);
    t.row(["FU area", &format!("{:.1}", res.area.fu)]);
    t.row(["register area", &format!("{:.1}", res.area.regs)]);
    t.row(["mux area", &format!("{:.1}", res.area.mux)]);
    t.row(["total area", &format!("{:.1}", res.area.total)]);
    t.row(["FU instances", &n_insts.to_string()]);
    t.row(["registers", &res.regs.n_regs.to_string()]);
    t.row(["relaxation rounds", &res.relax_rounds.to_string()]);
    print!("{t}");
    Ok(())
}
