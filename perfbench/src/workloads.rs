//! The three benchmark workloads. Each runs one repetition: topology,
//! scheme build, packet run and result record, through the public
//! `Scenario` API (`build_scheme` / `run_with` / `run_traced`).
//!
//! In the traced run the scheme is built from its parts instead — the
//! same public calls `Scenario::build_scheme` makes, each in its own
//! span — and the run is followed by self-checks (1-shard re-run,
//! repair replay, telemetry purity, trace round-trip). The traced
//! build must yield the same fingerprint as `build_scheme`; the harness
//! checks that across runs of the same seed.

use crate::record::{completed_gib, fingerprint, flow_stats, ops, Fingerprint, FlowStats, Report};
use crate::rss::RssSampler;
use crate::trace::Tracer;
use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_net::fault::FaultPlan;
use fatpaths_net::topo::fattree::fat_tree;
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_net::topo::Topology;
use fatpaths_sim::{
    AdaptiveMode, BuiltScheme, CompileMode, CompiledScheme, DownLinks, FlowRecord, LoadBalancing,
    RoutingScheme, Scenario, SchemeSpec, SimResult, SweepRunner, TcpVariant, TeConfig, TeScheme,
    TelemetryConfig, Trace, Transport,
};
use fatpaths_workloads::arrivals::{poisson_flows, FlowSpec, SEC_PS};
use fatpaths_workloads::mapping::{apply_mapping, random_mapping};
use fatpaths_workloads::patterns::Pattern;
use fatpaths_workloads::sizes::FlowSizeDist;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["sf_websearch", "ft_scale", "sf_churn_cp"];

/// Event-loop shards of the sharded workloads (the churn cells run one
/// shard each and get their parallelism from the sweep).
pub const SHARDS: u32 = 2;

/// Seed of the system's own configuration (layer sampling, telemetry
/// span sampling). It is fixed, so the workload seed varies only the
/// inputs — traffic and faults — and never the routing scheme.
const SCHEME_SEED: u64 = 1;

/// FatPaths' headline configuration: 9 layers, ρ = 0.6.
const N_LAYERS: usize = 9;
const RHO: f64 = 0.6;
const FATPATHS: SchemeSpec = SchemeSpec::LayeredRandom {
    n_layers: N_LAYERS,
    rho: RHO,
};

/// `sf_websearch`: Poisson arrivals per endpoint over this window.
const WS_LAMBDA: f64 = 300.0;
const WS_WINDOW_S: f64 = 0.0025;

/// `ft_scale`: bulk flow size.
const FT_FLOW_BYTES: u64 = 16 * 1024;

/// `sf_churn_cp` traffic: parallel random permutations of equal-size
/// flows. 4 × 32 KiB carries the bytes of one 128 KiB permutation. Over
/// a single permutation, whether TE beats the static tables at all is a
/// coin flip of the draw (one seed in five), and the two outcomes differ
/// in memory by a third; over four it nearly always does.
const CP_FLOW_BYTES: u64 = 32 * 1024;
const CP_PERMUTATIONS: usize = 4;
/// `sf_churn_cp` faults: a rolling reboot with detection-triggered
/// repair. The roll times are chosen so no repair tick coincides with a
/// router event, which keeps the replayed down-sets unambiguous.
const CP_REBOOT_FRACTION: f64 = 0.03;
const CP_ROLL_START_PS: u64 = 10_000_000;
const CP_STAGGER_PS: u64 = 37_000_000;
const CP_DOWNTIME_PS: u64 = 173_000_000;
const CP_DETECTION_PS: u64 = 50_000_000;
const CP_HORIZON_PS: u64 = 50_000_000_000;
const CP_TE_ITERATIONS: usize = 12;

pub fn run(workload: &str, seed: u64, traced: bool, rss: &RssSampler) -> Report {
    match workload {
        "sf_websearch" => sf_websearch(seed, traced, rss),
        "ft_scale" => ft_scale(seed, traced, rss),
        "sf_churn_cp" => sf_churn_cp(seed, traced, rss),
        other => unreachable!("workload '{other}' was validated by main"),
    }
}

/// Layered FatPaths tables built from their parts (traced run).
fn layered_tables(tr: &mut Tracer, topo: &Topology) -> RoutingTables {
    let g = &topo.graph;
    let ls = tr.span("core.layers", |_| {
        build_random_layers(g, &LayerConfig::new(N_LAYERS, RHO, SCHEME_SEED))
    });
    tr.span("core.tables", |_| RoutingTables::build(g, &ls))
}

/// What the result record assembles from the scored runs.
struct Outcome {
    fingerprint: String,
    attempted: u64,
    failed: u64,
    gib: f64,
    stats: FlowStats,
}

/// The result record: fingerprint, operation accounting and flow
/// statistics. `scored` selects the flows whose FCTs are reported.
fn assemble(results: &[SimResult], scored: impl Fn(&FlowRecord) -> bool) -> Outcome {
    let mut fp = Fingerprint::new();
    let (mut attempted, mut failed, mut gib) = (0, 0, 0.0);
    for r in results {
        fp.result(r);
        let (a, f) = ops(r);
        attempted += a;
        failed += f;
        gib += completed_gib(r);
    }
    let scored_flows = results
        .iter()
        .flat_map(|r| r.flows.iter())
        .filter(|f| scored(f));
    Outcome {
        fingerprint: fp.hex(),
        attempted,
        failed,
        gib,
        stats: flow_stats(scored_flows),
    }
}

/// The pipeline stages that make up `wall_s`, in order. Flow generation
/// runs between them but is benchmark-side work and is excluded.
const PIPELINE: [&str; 4] = ["net.topology", "scheme.build", "sim.run", "record"];

/// Builds the report: end-to-end metrics plus the per-layer metrics
/// every workload shares. `wall_end_s` is the tracer time at which the
/// result record was done.
fn report(tr: &Tracer, wall_end_s: f64, out: Outcome, results: &[SimResult]) -> Report {
    let mut rep = Report {
        fingerprint: out.fingerprint,
        attempted: out.attempted,
        failed: out.failed,
        ..Report::default()
    };
    let gen_s = tr.total_s("workloads.gen");
    let wall_s = wall_end_s - gen_s;
    let setup_s = tr.total_s("net.topology") + tr.total_s("scheme.build");
    rep.metric("wall_s", wall_s);
    rep.metric("setup_s", setup_s);
    rep.metric("sim_gib_per_s", out.gib / (wall_s - setup_s));
    rep.metric("fct_p50_us", out.stats.fct.p50);
    rep.metric("fct_p99_us", out.stats.fct.p99);
    rep.metric("flow_tput_mib_s", out.stats.tput_mib_s);
    rep.metric("fct_samples", out.stats.fct.n as f64);

    let covered: f64 = PIPELINE.iter().map(|s| tr.total_s(s)).sum();
    let run_s = tr.total_s("sim.run");
    rep.metric("trace.span_coverage", covered / wall_s);
    rep.metric("net.topology_s", tr.total_s("net.topology"));
    rep.metric("record.assemble_s", tr.total_s("record"));
    rep.metric("workloads.gen_s", gen_s);
    rep.metric("sim.run_s", run_s);
    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let windows = sum(&|r| r.profile.windows);
    rep.metric("sim.windows", windows);
    rep.metric("sim.us_per_window", run_s * 1e6 / windows.max(1.0));
    rep.metric("sim.mailbox_msgs", sum(&|r| r.profile.mailbox_msgs));
    rep.metric(
        "sim.mailbox_mib",
        sum(&|r| r.profile.mailbox_bytes) / (1u64 << 20) as f64,
    );
    rep.metric("sim.epochs", sum(&|r| r.profile.epochs_published));
    rep.metric("sim.trims", sum(&|r| r.trims));
    rep.metric("sim.drops", sum(&|r| r.drops));
    rep.metric(
        "sim.retx",
        sum(&|r| r.flows.iter().map(|f| f.retx as u64).sum()),
    );
    rep.metric("sim.unroutable", sum(&|r| r.unroutable));
    let end_ps = results.iter().map(|r| r.end_time).max().unwrap_or(0);
    rep.metric("sim.end_us", end_ps as f64 / 1e6);
    rep.metric("repair.ticks", sum(&|r| r.repair_log.len() as u64));
    rep.metric("repair.rows", sum(&|r| r.repair_rows()));
    rep.metric("repair.fib_rows", sum(&|r| r.fib_rows()));
    rep.check(
        "completion",
        out.failed == 0,
        format!(
            "{} of {} eligible flows did not complete",
            out.failed, out.attempted
        ),
    );
    rep
}

/// Self-checks of a traced pipeline: the build's parts account for the
/// whole build, and the pipeline spans for the whole wall time.
fn check_spans(rep: &mut Report, tr: &Tracer) {
    let build = tr.total_s("scheme.build");
    let parts = tr.children_s("scheme.build");
    rep.check(
        "spans_cover_build",
        parts >= 0.95 * build,
        format!("build parts {parts:.4} s of {build:.4} s"),
    );
    let coverage = rep
        .metrics
        .iter()
        .find(|(k, _)| *k == "trace.span_coverage")
        .map_or(0.0, |&(_, v)| v);
    rep.check(
        "spans_cover_wall",
        coverage >= 0.97,
        format!("pipeline spans cover {coverage:.4} of wall time"),
    );
}

/// The 1-shard re-run of a sharded workload: K-invariance from outside
/// and the shard speed-up (traced run only).
fn k1_rerun(rep: &mut Report, tr: &mut Tracer, sc: &Scenario, scheme: &BuiltScheme) {
    let r1 = tr.span("check.k1_run", |_| sc.clone().shards(1).run_with(scheme));
    let k1 = fingerprint(&r1);
    let k2 = rep.fingerprint.clone();
    rep.check(
        "k1_equals_k2",
        k1 == k2,
        format!("1-shard fingerprint {k1}, {SHARDS}-shard {k2}"),
    );
    let k1_s = tr.total_s("check.k1_run");
    rep.metric("sim.k1_run_s", k1_s);
    rep.metric("sim.shard_speedup", k1_s / tr.total_s("sim.run"));
}

/// Zeros for the per-layer metrics a workload does not exercise, so
/// every traced run reports the full set.
fn not_exercised(rep: &mut Report, names: &[&'static str]) {
    for &n in names {
        rep.metric(n, 0.0);
    }
}

/// Control-plane, sweep and telemetry metrics: only `sf_churn_cp`
/// exercises them.
const CONTROL_PLANE: [&str; 13] = [
    "te.negotiate_s",
    "te.iterations",
    "fib.compile_s",
    "fib.entries_total",
    "fib.groups_total",
    "repair.replay_s",
    "sweep.cells",
    "sweep.cell_max_s",
    "sweep.efficiency",
    "telemetry.overhead_s",
    "telemetry.ndjson_s",
    "telemetry.ndjson_mib",
    "telemetry.wire_gib",
];

/// Runs the untimed tail shared by the two sharded workloads and
/// returns the report.
fn sharded_tail(
    mut tr: Tracer,
    traced: bool,
    sc: &Scenario,
    scheme: &BuiltScheme,
    results: &[SimResult],
    out: Outcome,
    wall_end: f64,
) -> Report {
    let mut rep = report(&tr, wall_end, out, results);
    if traced {
        check_spans(&mut rep, &tr);
        k1_rerun(&mut rep, &mut tr, sc, scheme);
        not_exercised(&mut rep, &CONTROL_PLANE);
    }
    rep.info("shards", SHARDS);
    rep.spans = tr.spans().to_vec();
    rep
}

/// The paper's headline cell (Fig. 2): Medium Slim Fly, FatPaths, NDP,
/// Poisson web-search arrivals over a randomized permutation.
fn sf_websearch(seed: u64, traced: bool, rss: &RssSampler) -> Report {
    let mut tr = Tracer::new();
    let topo = tr.span("net.topology", |_| {
        slim_fly(19, 14).expect("slim_fly(19, 14) is a valid Slim Fly")
    });
    let flows = tr.span("workloads.gen", |_| {
        let n = topo.num_endpoints() as u64;
        let perm = Pattern::Permutation.flows(n, seed);
        let mut pairs = apply_mapping(&random_mapping(n as u32, seed ^ 0xA11CE), &perm);
        pairs.retain(|&(s, d)| s != d);
        let sizes = FlowSizeDist::web_search();
        poisson_flows(&pairs, WS_LAMBDA, WS_WINDOW_S, &sizes, seed ^ 0xF10)
    });
    let sc = Scenario::on(&topo)
        .scheme(FATPATHS)
        .transport(Transport::ndp_default())
        .workload(&flows)
        .seed(SCHEME_SEED)
        .shards(SHARDS);
    let scheme = tr.span("scheme.build", |tr| {
        if traced {
            BuiltScheme::Layered(layered_tables(tr, &topo))
        } else {
            sc.build_scheme()
        }
    });
    rss.checkpoint();
    let results = [tr.span("sim.run", |_| sc.run_with(&scheme))];
    // The warm-up half of the arrival window is dropped from the FCT
    // statistics (§VII-A8); every flow still counts as an operation.
    let cutoff = (WS_WINDOW_S * 0.5 * SEC_PS as f64) as u64;
    let out = tr.span("record", |_| assemble(&results, |f| f.start >= cutoff));
    let wall_end = tr.now_s();
    let layers_s = tr.total_s("core.layers");
    let tables_s = tr.total_s("core.tables");
    let mut rep = sharded_tail(tr, traced, &sc, &scheme, &results, out, wall_end);
    rep.metric("workloads.flows", flows.len() as f64);
    if traced {
        rep.metric("core.layers_s", layers_s);
        rep.metric("core.tables_s", tables_s);
        rep.metric("core.distances_s", 0.0);
    }
    rep
}

/// The 119k-endpoint scale run: `fat_tree(62, 2)`, a 16 KiB bulk
/// pairing `e → e + n/2` under a seeded endpoint relabeling, minimal
/// routing with packet spray.
fn ft_scale(seed: u64, traced: bool, rss: &RssSampler) -> Report {
    let mut tr = Tracer::new();
    let topo = tr.span("net.topology", |_| fat_tree(62, 2));
    let flows = tr.span("workloads.gen", |_| {
        let n = topo.num_endpoints() as u64;
        let label = random_mapping(n as u32, seed);
        (0..n)
            .map(|e| FlowSpec {
                src: label[e as usize],
                dst: label[((e + n / 2) % n) as usize],
                size: FT_FLOW_BYTES,
                start: 0,
            })
            .collect::<Vec<_>>()
    });
    let sc = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .lb(LoadBalancing::PacketSpray)
        .workload(&flows)
        .seed(SCHEME_SEED)
        .shards(SHARDS);
    let scheme = tr.span("scheme.build", |tr| {
        if traced {
            let dm = tr.span("core.distances", |_| DistanceMatrix::build(&topo.graph));
            BuiltScheme::Minimal { topo: &topo, dm }
        } else {
            sc.build_scheme()
        }
    });
    rss.checkpoint();
    let results = [tr.span("sim.run", |_| sc.run_with(&scheme))];
    let out = tr.span("record", |_| assemble(&results, |_| true));
    let wall_end = tr.now_s();
    let distances_s = tr.total_s("core.distances");
    let mut rep = sharded_tail(tr, traced, &sc, &scheme, &results, out, wall_end);
    rep.metric("workloads.flows", flows.len() as f64);
    if traced {
        rep.metric("core.layers_s", 0.0);
        rep.metric("core.tables_s", 0.0);
        rep.metric("core.distances_s", distances_s);
    }
    rep
}

/// The control plane under churn: Small Slim Fly, FatPaths + TE +
/// aggregated compiled FIB built once and shared by an NDP and a DCTCP
/// sweep cell, each under a rolling reboot with 50 µs detection,
/// queue-depth adaptive flowlets and telemetry on.
fn sf_churn_cp(seed: u64, traced: bool, rss: &RssSampler) -> Report {
    let mut tr = Tracer::new();
    let topo = tr.span("net.topology", |_| {
        slim_fly(11, 8).expect("slim_fly(11, 8) is a valid Slim Fly")
    });
    let (flows, plan) = tr.span("workloads.gen", |_| {
        let n = topo.num_endpoints() as u64;
        let flows: Vec<FlowSpec> = Pattern::MultiPermutation { k: CP_PERMUTATIONS }
            .flows(n, seed)
            .into_iter()
            .filter(|&(s, d)| topo.endpoint_router(s) != topo.endpoint_router(d))
            .map(|(src, dst)| FlowSpec {
                src,
                dst,
                size: CP_FLOW_BYTES,
                start: 0,
            })
            .collect();
        let plan = FaultPlan::rolling_reboot(
            &topo,
            CP_REBOOT_FRACTION,
            CP_ROLL_START_PS,
            CP_STAGGER_PS,
            CP_DOWNTIME_PS,
            seed ^ 0x5EB007,
        );
        (flows, plan)
    });
    // A negative convergence threshold never stops early, so every
    // seed negotiates exactly `CP_TE_ITERATIONS` rounds: fixed set-up
    // work instead of a seed-dependent early exit.
    let te_cfg = TeConfig {
        max_iterations: CP_TE_ITERATIONS,
        epsilon: -1.0,
        ..TeConfig::default()
    };
    let base = Scenario::on(&topo)
        .scheme(FATPATHS)
        .workload(&flows)
        .seed(SCHEME_SEED)
        .traffic_engineered(te_cfg)
        .compiled(CompileMode::Aggregated)
        .fault_plan(plan.clone())
        .detection_delay(CP_DETECTION_PS)
        .adaptive(AdaptiveMode::QueueDepth)
        .telemetry(TelemetryConfig {
            seed: SCHEME_SEED,
            ..TelemetryConfig::on()
        })
        .horizon(CP_HORIZON_PS)
        .shards(1);
    let mut te_iterations = 0;
    let scheme = tr.span("scheme.build", |tr| {
        if !traced {
            return base.build_scheme();
        }
        let rt = layered_tables(tr, &topo);
        let te = tr.span("te.negotiate", |_| {
            let pairs: Vec<(u32, u32)> = flows.iter().map(|f| (f.src, f.dst)).collect();
            let demands = fatpaths_te::endpoint_demands(&topo, &pairs);
            TeScheme::negotiate(&topo.graph, &rt, &demands, &te_cfg)
        });
        te_iterations = te.iterations();
        tr.span("fib.compile", |_| {
            let inner: Box<dyn RoutingScheme + Send + Sync> = Box::new(BuiltScheme::Te(te));
            BuiltScheme::Compiled(CompiledScheme::compile(
                &topo,
                inner,
                CompileMode::Aggregated,
            ))
        })
    });
    rss.checkpoint();
    let cells = vec![
        Transport::ndp_default(),
        Transport::tcp_default(TcpVariant::Dctcp),
    ];
    let n_cells = cells.len();
    let timed: Vec<(SimResult, f64)> = tr.span("sim.run", |_| {
        SweepRunner::new("perfbench-churn", cells.clone()).run(|_, &t| {
            let t0 = Instant::now();
            let r = base.clone().transport(t).run_with(&scheme);
            (r, t0.elapsed().as_secs_f64())
        })
    });
    let (results, cell_s): (Vec<SimResult>, Vec<f64>) = timed.into_iter().unzip();
    let out = tr.span("record", |_| assemble(&results, |f| !f.host_dead));
    let wall_end = tr.now_s();
    let mut rep = report(&tr, wall_end, out, &results);
    rep.metric("workloads.flows", flows.len() as f64);
    rep.info("shards", 1);
    if traced {
        check_spans(&mut rep, &tr);
        let run_s = tr.total_s("sim.run");
        let cell_max = cell_s.iter().copied().fold(0.0, f64::max);
        rep.metric("core.layers_s", tr.total_s("core.layers"));
        rep.metric("core.tables_s", tr.total_s("core.tables"));
        rep.metric("core.distances_s", 0.0);
        rep.metric("te.negotiate_s", tr.total_s("te.negotiate"));
        rep.metric("te.iterations", te_iterations as f64);
        rep.metric("fib.compile_s", tr.total_s("fib.compile"));
        let BuiltScheme::Compiled(compiled) = &scheme else {
            unreachable!("the traced build returns a compiled scheme")
        };
        let fib = compiled.fib().stats();
        rep.metric("fib.entries_total", fib.entries_total as f64);
        rep.metric("fib.groups_total", fib.groups_total as f64);
        rep.metric("sweep.cells", n_cells as f64);
        rep.metric("sweep.cell_max_s", cell_max);
        let pool = rayon::current_num_threads() as f64;
        rep.metric(
            "sweep.efficiency",
            cell_s.iter().sum::<f64>() / (pool.min(n_cells as f64) * run_s),
        );
        rep.metric("sim.k1_run_s", 0.0);
        rep.metric("sim.shard_speedup", 0.0);
        repair_replay(&mut rep, &mut tr, &topo, &plan, &scheme, &results);
        telemetry_checks(&mut rep, &mut tr, &base, &scheme, &results[0]);
    }
    rep.spans = tr.spans().to_vec();
    rep
}

/// Replays `RoutingScheme::repair_routes` on the built scheme with each
/// logged tick's down-set, reconstructed from the fault plan, and checks
/// the overlay sizes against the runs' repair logs.
fn repair_replay(
    rep: &mut Report,
    tr: &mut Tracer,
    topo: &Topology,
    plan: &FaultPlan,
    scheme: &BuiltScheme,
    results: &[SimResult],
) {
    let longest = results
        .iter()
        .map(|r| &r.repair_log)
        .max_by_key(|l| l.len())
        .expect("at least one cell");
    let replayed: Vec<(u64, u64)> = tr.span("repair.replay", |_| {
        longest
            .iter()
            .map(|tick| {
                let mut dead = vec![false; topo.num_routers()];
                for ev in plan.router_events().iter().filter(|e| e.at <= tick.at) {
                    dead[ev.router as usize] = !ev.up;
                }
                let dead: Vec<u32> = (0..dead.len() as u32)
                    .filter(|&r| dead[r as usize])
                    .collect();
                let down = DownLinks::from_failures(&topo.graph, &[], &dead);
                let mut overlay = scheme.repair_routes(&topo.graph, &down);
                overlay.seal();
                (overlay.len() as u64, overlay.fib_rows_rewritten)
            })
            .collect()
    });
    let mismatches = results
        .iter()
        .flat_map(|r| r.repair_log.iter().zip(&replayed))
        .filter(|(log, &(rows, fib_rows))| log.rows != rows || log.fib_rows != fib_rows)
        .count();
    rep.check(
        "repair_replay_rows",
        mismatches == 0 && !replayed.is_empty(),
        format!(
            "{} ticks replayed, {mismatches} logged ticks disagree",
            replayed.len()
        ),
    );
    rep.metric("repair.replay_s", tr.total_s("repair.replay"));
}

/// Telemetry purity and export: a telemetry-off re-run of the NDP cell
/// must match the telemetry-on cell, and the exported trace must
/// round-trip through NDJSON.
fn telemetry_checks(
    rep: &mut Report,
    tr: &mut Tracer,
    base: &Scenario,
    scheme: &BuiltScheme,
    cell: &SimResult,
) {
    let want = fingerprint(cell);
    let ndp = base.clone().transport(Transport::ndp_default());
    let off = ndp.clone().telemetry(TelemetryConfig::disabled());
    // On, off, off, on: the order effects of back-to-back runs cancel.
    let mut got = Vec::new();
    for (name, sc) in [
        ("check.telemetry_on", &ndp),
        ("check.telemetry_off", &off),
        ("check.telemetry_off", &off),
        ("check.telemetry_on", &ndp),
    ] {
        let r = tr.span(name, |_| sc.run_with(scheme));
        got.push(fingerprint(&r));
    }
    rep.check(
        "telemetry_pure",
        got.iter().all(|g| *g == want),
        format!("sweep cell {want}, serial on/off/off/on {got:?}"),
    );
    rep.metric(
        "telemetry.overhead_s",
        (tr.total_s("check.telemetry_on") - tr.total_s("check.telemetry_off")) / 2.0,
    );
    let (traced, trace) = tr.span("check.run_traced", |_| ndp.clone().run_traced());
    let traced = fingerprint(&traced);
    rep.check(
        "run_traced_matches",
        traced == want,
        format!("run_traced {traced}, sweep cell {want}"),
    );
    let ndjson = tr.span("telemetry.ndjson", |_| trace.to_ndjson());
    let parsed = Trace::parse_ndjson(&ndjson);
    let wire = trace.total_wire_bytes();
    let round_trip = parsed.as_ref().map(Trace::total_wire_bytes);
    rep.check(
        "trace_round_trip",
        round_trip == Ok(wire) && wire > 0,
        format!("wire bytes {wire}, parsed back {round_trip:?}"),
    );
    rep.metric("telemetry.ndjson_s", tr.total_s("telemetry.ndjson"));
    rep.metric(
        "telemetry.ndjson_mib",
        ndjson.len() as f64 / (1u64 << 20) as f64,
    );
    rep.metric("telemetry.wire_gib", wire as f64 / (1u64 << 30) as f64);
}
