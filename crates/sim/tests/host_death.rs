//! Mid-flow host-death semantics (`SimConfig::abort_on_host_death`):
//! separates "the host came back and the *same* transfer finished"
//! (default stall-and-resume) from "the transfer would have to be
//! restarted" (abort after k RTOs against a dead endpoint — the
//! connection reset a real stack surfaces).

use fatpaths_net::fault::FaultPlan;
use fatpaths_sim::{Scenario, SchemeSpec, SimResult};
use fatpaths_workloads::arrivals::FlowSpec;

const MS: u64 = 1_000_000_000; // 1 ms in ps

/// One large flow toward router 30's endpoint (still transferring when
/// the router dies at 1 ms), plus an unaffected control flow.
fn run(abort_k: Option<u32>, revive_at: u64) -> SimResult {
    run_plan(
        abort_k,
        4 << 20,
        FaultPlan::none()
            .router_down_at(MS, 30)
            .router_up_at(revive_at, 30),
    )
}

fn run_plan(abort_k: Option<u32>, size: u64, plan: FaultPlan) -> SimResult {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
    let flows = [
        FlowSpec {
            src: 0,
            dst: 30,
            size,
            start: 0,
        },
        FlowSpec {
            src: 5,
            dst: 12,
            size: 64 * 1024,
            start: 0,
        },
    ];
    let mut sc = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 4,
            rho: 0.6,
        })
        .workload(flows)
        .seed(2)
        .horizon(60 * MS)
        .fault_plan(plan);
    if let Some(k) = abort_k {
        sc = sc.abort_on_host_death(k);
    }
    sc.run()
}

#[test]
fn without_the_knob_the_same_transfer_survives_the_reboot() {
    let res = run(None, 10 * MS);
    let hit = &res.flows[0];
    assert!(!hit.aborted);
    let finish = hit.finish.expect("flow resumes after the host revives");
    assert!(
        finish > 10 * MS,
        "completion {finish} must postdate the 10 ms revival"
    );
    assert!(res.flows[1].finish.is_some(), "control flow unaffected");
    assert_eq!(res.aborted(), 0);
    assert_eq!(res.completion_rate(), 1.0);
}

#[test]
fn with_the_knob_the_transfer_aborts_after_k_dead_rtos() {
    let res = run(Some(2), 10 * MS);
    let hit = &res.flows[0];
    assert!(hit.aborted, "2 RTOs against a dead host must abort");
    assert!(hit.finish.is_none(), "aborted transfers never complete");
    assert!(!hit.host_dead, "the flow *was* injected — host died later");
    // The control flow is untouched by the knob.
    assert!(res.flows[1].finish.is_some());
    assert!(!res.flows[1].aborted);
    assert_eq!(res.aborted(), 1);
    // Aborted flows stay in the eligible denominator: the reset is the
    // fault's scheme-visible outcome.
    assert_eq!(res.host_dead(), 0);
    assert!((res.completion_rate() - 0.5).abs() < 1e-9);
}

#[test]
fn generous_rto_budget_outlasts_a_short_reboot() {
    // Downtime 3 ms < budget · 2 ms NDP RTO: the host returns before
    // the budget runs out, so the transfer resumes — the knob only
    // fires when the outage outlasts k timeouts.
    let res = run(Some(8), 4 * MS);
    let hit = &res.flows[0];
    assert!(!hit.aborted, "budget must survive a 3 ms outage");
    assert!(hit.finish.is_some());
    assert_eq!(res.completion_rate(), 1.0);
}

#[test]
fn separate_survivable_outages_do_not_sum_to_an_abort() {
    // The budget counts *consecutive* RTOs against a dead endpoint:
    // three separate ~2.5 ms outages (≤ 2 dead RTOs each against the
    // 2 ms NDP RTO) under k = 3 must each reset the count once traffic
    // flows again — a lifetime sum of ~6 dead RTOs is irrelevant.
    let mut plan = FaultPlan::none();
    for i in 0..3u64 {
        let down = MS + i * 5 * MS; // 1 ms, 6 ms, 11 ms
        plan = plan
            .router_down_at(down, 30)
            .router_up_at(down + 5 * MS / 2, 30);
    }
    let res = run_plan(Some(3), 16 << 20, plan);
    let hit = &res.flows[0];
    assert!(
        !hit.aborted,
        "separate short outages must not accumulate into an abort"
    );
    assert!(hit.finish.is_some(), "the transfer rides out every outage");
    assert_eq!(res.completion_rate(), 1.0);
}
