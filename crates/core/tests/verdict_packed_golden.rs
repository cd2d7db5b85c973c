//! Verdict-level golden tests of the packed flow-equivalence campaign.
//!
//! `sim_packed_golden.rs` pins the packed kernel's *runs* lane by lane; this
//! suite pins the *verdicts* a campaign derives from them. A packed campaign
//! point ([`DesyncFlow::verify_packed`]) compares the capture words of all
//! lanes at once, and for every lane its verdict (`lane_equivalence[l]`,
//! mismatches and missing registers included) and its compared-cycle count
//! must equal a detached scalar [`DesyncFlow::verified`] run with that
//! lane's seed. The cases cover random circuits under all three handshake
//! protocols at 8 to 12 lanes, and the DLX under the non-overlapping
//! protocol at all 64 lanes — the known non-equivalent configuration, so the
//! mismatch reporting is compared lane by lane as well.

use desync_circuits::random::RandomCircuitConfig;
use desync_circuits::DlxConfig;
use desync_core::{DesyncFlow, DesyncOptions, Protocol};
use desync_netlist::{CellLibrary, NetId, Netlist};
use desync_sim::{PackedVectorSource, VectorSource, MAX_LANES};
use proptest::prelude::*;

fn data_inputs(netlist: &Netlist) -> Vec<NetId> {
    netlist
        .inputs()
        .iter()
        .copied()
        .filter(|&n| netlist.net(n).name != "clk")
        .collect()
}

/// Distinct per-lane stimulus seeds derived from one base seed.
fn lane_seeds(base: u64, lanes: usize) -> Vec<u64> {
    (0..lanes as u64)
        .map(|lane| base ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(lane))
        .collect()
}

/// Verifies one packed campaign point over `seeds` and asserts every lane
/// against a detached scalar flow verified with that lane's seed. Returns
/// the number of non-equivalent lanes.
fn assert_lane_verdicts_golden(
    netlist: &Netlist,
    library: &CellLibrary,
    options: DesyncOptions,
    cycles: usize,
    seeds: &[u64],
) -> usize {
    let nets = data_inputs(netlist);
    let stimulus = PackedVectorSource::pseudo_random(nets.clone(), seeds);
    let mut packed_flow = DesyncFlow::new(netlist, library, options).expect("options");
    let report = packed_flow
        .verify_packed(&stimulus, cycles)
        .expect("packed co-simulation");
    assert_eq!(report.lanes, seeds.len());
    assert_eq!(report.lane_equivalence.len(), seeds.len());
    assert_eq!(report.compared_cycles.len(), seeds.len());

    let (mut sync_lane_events, mut async_lane_events) = (0, 0);
    for (lane, &seed) in seeds.iter().enumerate() {
        let mut scalar_flow = DesyncFlow::new(netlist, library, options).expect("options");
        scalar_flow.set_verification(VectorSource::pseudo_random(nets.clone(), seed), cycles);
        let scalar = scalar_flow.verified().expect("scalar co-simulation");
        assert_eq!(
            report.lane_equivalence[lane], scalar.equivalence,
            "lane {lane} (seed {seed:#x}) verdict must equal the scalar flow's"
        );
        assert_eq!(
            report.compared_cycles[lane], scalar.compared_cycles,
            "lane {lane} (seed {seed:#x}) compared cycles"
        );
        sync_lane_events += scalar.sync_run.committed_events;
        async_lane_events += scalar.async_run.committed_events;
    }
    assert_eq!(report.sync_lane_events, sync_lane_events);
    assert_eq!(report.async_lane_events, async_lane_events);
    report.lanes - report.equivalent_lanes()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random circuits under every protocol: each lane's verdict and
    /// compared-cycle count equal its scalar flow's.
    #[test]
    fn packed_lane_verdicts_match_scalar_flows(
        seed in 0u64..300,
        flip_flops in 2usize..8,
        gates in 5usize..30,
        lanes in 8usize..=12,
    ) {
        let netlist = RandomCircuitConfig {
            inputs: 3,
            flip_flops,
            gates,
            outputs: 3,
            seed,
        }
        .generate()
        .expect("random generation");
        let library = CellLibrary::generic_90nm();
        let seeds = lane_seeds(seed ^ 0x3c3c, lanes);
        for &protocol in Protocol::all() {
            let options = DesyncOptions::default().with_protocol(protocol);
            assert_lane_verdicts_golden(&netlist, &library, options, 10, &seeds);
        }
    }
}

/// The DLX under the non-overlapping protocol at a full 64-lane word: the
/// lanes are not flow equivalent, and every lane's mismatches (registers,
/// positions, values) and compared cycles equal its scalar flow's.
#[test]
fn dlx_non_overlapping_lane_verdicts_match_scalar_flows() {
    let dlx = DlxConfig::default().generate().expect("dlx generation");
    let library = CellLibrary::generic_90nm();
    let options = DesyncOptions::default().with_protocol(Protocol::NonOverlapping);
    let seeds = lane_seeds(0xd1c5, MAX_LANES);
    let non_equivalent = assert_lane_verdicts_golden(&dlx, &library, options, 16, &seeds);
    assert!(
        non_equivalent > 0,
        "the DLX under the non-overlapping protocol is expected to diverge"
    );
}
