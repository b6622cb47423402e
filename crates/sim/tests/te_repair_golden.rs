//! Golden pin of TE repair output. The parity suites compare two runs
//! that repair through the same controller, so they cannot notice the
//! controller itself changing its answer. This test pins one TE +
//! compiled-FIB run under a rolling reboot to fixed values: every
//! repair tick's time, overlay rows and pushed FIB rows, plus a digest
//! of the whole result. Any change to what repair installs — or to what
//! the packets then do — moves one of them.

use fatpaths_net::fault::FaultPlan;
use fatpaths_net::topo::Topology;
use fatpaths_sim::{CompileMode, Scenario, SchemeSpec, SimResult, TeConfig};
use fatpaths_workloads::arrivals::FlowSpec;

fn permutation(topo: &Topology, offset: u64) -> Vec<FlowSpec> {
    let n = topo.num_endpoints() as u64;
    (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + offset) % n) as u32,
            size: 48 * 1024,
            start: 0,
        })
        .filter(|f| f.src != f.dst)
        .collect()
}

/// FNV-1a over everything a result CSV could derive: per-flow records,
/// global counters and the repair log.
fn digest(r: &SimResult) -> u64 {
    use std::fmt::Write as _;
    let mut s = format!(
        "end={} drops={} trims={} unroutable={}\n",
        r.end_time, r.drops, r.trims, r.unroutable
    );
    for f in &r.flows {
        let _ = writeln!(
            s,
            "{},{},{:?},{},{},{},{}",
            f.size, f.start, f.finish, f.retx, f.trims, f.host_dead, f.aborted
        );
    }
    for t in &r.repair_log {
        let _ = writeln!(s, "tick {} rows={} fib={}", t.at, t.rows, t.fib_rows);
    }
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn te_compiled_rolling_reboot_repair_is_pinned() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
    let flows = permutation(&topo, 29);
    // Five routers rebooted 30 µs apart, 150 µs down each.
    let plan = FaultPlan::rolling_reboot(&topo, 0.1, 20_000_000, 30_000_000, 150_000_000, 3);
    let r = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 4,
            rho: 0.6,
        })
        .traffic_engineered(TeConfig::default())
        .compiled(CompileMode::Aggregated)
        .workload(&flows)
        .seed(5)
        .horizon(40_000_000_000)
        .fault_plan(plan)
        .detection_delay(50_000_000)
        .run();
    let log: Vec<(u64, u64, u64)> = r
        .repair_log
        .iter()
        .map(|t| (t.at, t.rows, t.fib_rows))
        .collect();
    assert_eq!(log, GOLDEN_LOG);
    assert_eq!(digest(&r), GOLDEN_DIGEST);
}

/// `(at, rows, fib_rows)` per repair tick.
const GOLDEN_LOG: [(u64, u64, u64); 10] = [
    (70_000_000, 1225, 1069),
    (100_000_000, 1789, 1519),
    (130_000_000, 2418, 2037),
    (160_000_000, 2954, 2448),
    (190_000_000, 2525, 2163),
    (220_000_000, 1858, 1626),
    (250_000_000, 1299, 1176),
    (280_000_000, 616, 548),
    (310_000_000, 0, 0),
    (340_000_000, 0, 0),
];
const GOLDEN_DIGEST: u64 = 0xdd99_a2cb_cfda_3ead;
