//! API-parity regression tests for the `RoutingScheme` redesign: a
//! hand-built scheme run through `Scenario::run_with` must produce
//! bit-identical results to the `Scenario` builder's own construction,
//! preserving the behavior of the old hard-coded `Routing` enum paths.
//! Plus smoke tests that the previously theory-only baselines complete
//! real workloads.

use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::past::PastVariant;
use fatpaths_core::scheme::{PastScheme, RoutingScheme, SpainScheme};
use fatpaths_core::spain::SpainConfig;
use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::topo::{fattree::fat_tree, slimfly::slim_fly, TopoKind, Topology};
use fatpaths_sim::{BuiltScheme, LoadBalancing, Scenario, SchemeSpec, SimResult, Transport};
use fatpaths_workloads::arrivals::FlowSpec;

fn permutation_flows(topo: &Topology, offset: u64, size: u64) -> Vec<FlowSpec> {
    let n = topo.num_endpoints() as u64;
    (0..n)
        .filter_map(|e| {
            let d = ((e + offset) % n) as u32;
            (topo.endpoint_router(e as u32) != topo.endpoint_router(d)).then_some(FlowSpec {
                src: e as u32,
                dst: d,
                size,
                start: (e * 10_000),
            })
        })
        .collect()
}

/// Flow-level fingerprint: finish times, retransmits, trims — equal
/// fingerprints mean bit-identical simulation outcomes.
fn fingerprint(r: &SimResult) -> Vec<(Option<u64>, u32, u32)> {
    r.flows
        .iter()
        .map(|f| (f.finish, f.retx, f.trims))
        .collect()
}

/// The old `Routing::Layered` path, reconstructed: hand-built tables
/// must equal the builder's, for the same seed, on a fat tree and on a
/// Slim Fly.
#[test]
fn layered_dispatch_paths_are_bit_identical() {
    for topo in [slim_fly(5, 2).unwrap(), fat_tree(4, 2)] {
        let flows = permutation_flows(&topo, 7, 96 * 1024);
        let sc = Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            })
            .workload(&flows)
            .seed(11);
        let ls = build_random_layers(&topo.graph, &LayerConfig::new(4, 0.6, 11));
        let r_manual = sc.run_with(&BuiltScheme::Layered(RoutingTables::build(
            &topo.graph,
            &ls,
        )));
        let r_builder = sc.run();

        assert_eq!(
            fingerprint(&r_manual),
            fingerprint(&r_builder),
            "{}",
            topo.name
        );
        assert_eq!(r_manual.end_time, r_builder.end_time);
        assert_eq!(r_manual.trims, r_builder.trims);
        assert_eq!(r_manual.completion_rate(), 1.0);
    }
}

/// The old `Routing::Minimal` path, reconstructed, across all three
/// ECMP-family balancers on a fat tree and a Slim Fly.
#[test]
fn minimal_dispatch_paths_are_bit_identical() {
    for topo in [slim_fly(5, 2).unwrap(), fat_tree(4, 2)] {
        let flows = permutation_flows(&topo, 13, 64 * 1024);
        let ms = BuiltScheme::Minimal {
            topo: &topo,
            dm: DistanceMatrix::build(&topo.graph),
        };
        for lb in [
            LoadBalancing::EcmpFlow,
            LoadBalancing::PacketSpray,
            LoadBalancing::LetFlow,
        ] {
            let sc = Scenario::on(&topo)
                .scheme(SchemeSpec::Minimal)
                .lb(lb)
                .workload(&flows)
                .seed(2);
            let r_manual = sc.run_with(&ms);
            let r_builder = sc.run();
            assert_eq!(
                fingerprint(&r_manual),
                fingerprint(&r_builder),
                "{:?} {}",
                lb,
                topo.name
            );
            assert_eq!(r_manual.completion_rate(), 1.0, "{:?} {}", lb, topo.name);
        }
    }
}

/// SPAIN completes every flow of a permutation on a small topology, under
/// both transports — the baseline is simulatable, not just scorable.
#[test]
fn spain_adapter_completes_all_flows() {
    let topo = slim_fly(5, 2).unwrap();
    let flows = permutation_flows(&topo, 21, 64 * 1024);
    let spain = SpainScheme::build(
        &topo.graph,
        &SpainConfig {
            k_paths: 2,
            ..SpainConfig::default()
        },
    );
    assert!(spain.num_layers() >= 2);
    let spain = BuiltScheme::Spain(spain);
    for transport in [
        Transport::ndp_default(),
        Transport::tcp_default(fatpaths_sim::TcpVariant::Dctcp),
    ] {
        let res = Scenario::on(&topo)
            .transport(transport)
            .lb(LoadBalancing::FatPathsLayers)
            .workload(&flows)
            .run_with(&spain);
        assert_eq!(res.completion_rate(), 1.0, "SPAIN under {transport:?}");
    }
}

/// PAST completes every flow of a permutation on a small topology; its
/// single-path-per-pair nature shows up as a strictly worse makespan than
/// FatPaths on the same workload.
#[test]
fn past_adapter_completes_all_flows() {
    let topo = slim_fly(5, 2).unwrap();
    let flows = permutation_flows(&topo, 21, 64 * 1024);
    let past = BuiltScheme::Past(PastScheme::build(&topo.graph, PastVariant::Bfs, 4));
    let res = Scenario::on(&topo)
        .lb(LoadBalancing::EcmpFlow)
        .workload(&flows)
        .run_with(&past);
    assert_eq!(res.completion_rate(), 1.0);

    let fp = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 9,
            rho: 0.6,
        })
        .workload(&flows)
        .seed(1)
        .run();
    assert!(
        fp.makespan().unwrap() <= res.makespan().unwrap(),
        "layered routing should not lose to single-path PAST"
    );
}

/// KSP and Valiant complete the adversarial workload on the small-class
/// Slim Fly through the builder — the full §VII comparison set runs.
#[test]
fn ksp_and_valiant_complete_on_small_class_sf() {
    let topo = build(TopoKind::SlimFly, SizeClass::Small, 1);
    let p = topo.concentration[0] as u64;
    let offset = p * (topo.num_routers() as u64 / 2 + 1);
    let flows = permutation_flows(&topo, offset, 32 * 1024);
    for spec in [
        SchemeSpec::Ksp { k: 3 },
        SchemeSpec::Valiant { n_layers: 4 },
    ] {
        let res = Scenario::on(&topo)
            .scheme(spec)
            .workload(&flows)
            .seed(2)
            .run();
        assert_eq!(res.completion_rate(), 1.0, "{}", spec.label());
    }
}
