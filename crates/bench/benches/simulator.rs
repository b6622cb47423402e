//! Benchmarks for the packet simulator's event rate and the fluid solver —
//! the cost ceiling for every §VII experiment. Schemes are built outside
//! the timed loop; each iteration is one `Scenario::run_with`.

use criterion::{criterion_group, criterion_main, Criterion};
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_sim::fluid::max_min_rates;
use fatpaths_sim::{LoadBalancing, Scenario, SchemeSpec, TcpVariant, Transport};
use fatpaths_workloads::arrivals::FlowSpec;
use std::hint::black_box;

fn adversarial_flows(n: u64, p: u64, nr: u64, size: u64) -> Vec<FlowSpec> {
    let offset = p * (nr / 2 + 1);
    (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + offset) % n) as u32,
            size,
            start: 0,
        })
        .collect()
}

fn bench_packet_sim(c: &mut Criterion) {
    let t = slim_fly(7, 5).unwrap();
    let flows = adversarial_flows(
        t.num_endpoints() as u64,
        5,
        t.num_routers() as u64,
        256 * 1024,
    );
    let fatpaths = Scenario::on(&t)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 9,
            rho: 0.6,
        })
        .lb(LoadBalancing::FatPathsLayers)
        .workload(&flows);
    let ecmp = Scenario::on(&t)
        .scheme(SchemeSpec::Minimal)
        .lb(LoadBalancing::EcmpFlow)
        .workload(&flows);
    let dctcp = fatpaths
        .clone()
        .transport(Transport::tcp_default(TcpVariant::Dctcp));
    let (layered, minimal) = (fatpaths.build_scheme(), ecmp.build_scheme());
    let mut g = c.benchmark_group("packet_sim_sf98_490flows");
    g.sample_size(10);
    g.bench_function("ndp_fatpaths", |b| {
        b.iter(|| black_box(fatpaths.run_with(&layered)))
    });
    g.bench_function("ndp_ecmp", |b| {
        b.iter(|| black_box(ecmp.run_with(&minimal)))
    });
    g.bench_function("tcp_dctcp_fatpaths", |b| {
        b.iter(|| black_box(dctcp.run_with(&layered)))
    });
    g.finish();
}

fn bench_fluid(c: &mut Criterion) {
    // 10k flows over 20k links, 3 links per path.
    let paths: Vec<Vec<u32>> = (0..10_000u32)
        .map(|i| vec![i % 20_000, (i * 7 + 1) % 20_000, (i * 13 + 2) % 20_000])
        .collect();
    let mut g = c.benchmark_group("fluid");
    g.sample_size(10);
    g.bench_function("max_min_10k_flows", |b| {
        b.iter(|| black_box(max_min_rates(&paths, 20_000, 10.0)))
    });
    g.finish();
}

criterion_group!(benches, bench_packet_sim, bench_fluid);
criterion_main!(benches);
