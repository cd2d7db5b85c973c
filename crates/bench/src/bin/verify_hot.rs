//! Verification hot-path sweep: the full protocol × margin grid submitted
//! to a [`desync_core::DesyncService`] as first-class sweep requests, run
//! once on a single worker (serial baseline) and once on 4 workers, with
//! per-point reports cross-checked bit for bit — then a third time as a
//! 64-seed packed campaign through the bit-parallel kernel, with probe
//! lanes cross-checked against detached scalar flows. Writes the headline
//! numbers to `BENCH_sim.json` (schema `desync-verify-hot/4`, see
//! ROADMAP.md) — word-level and scalar-equivalent lane throughput are
//! reported separately.
//!
//! ```text
//! cargo run --release -p desync-bench --bin verify_hot
//! ```

use desync_bench::verify_hot::run_verify_hot;

fn main() {
    let report = run_verify_hot();
    println!("{report}");
    // Hard properties of the sweep (checked in CI):
    // the 1-worker and 4-worker sweeps (and a detached cache-less flow)
    // must agree bit for bit, and shared artifacts must be computed
    // exactly once on the parallel engine — one sync reference
    // simulation, one compiled datapath model (plus one sync model) and
    // one sizing analysis per design, everything else served.
    assert!(
        report.bit_identical_to_fresh,
        "serial, parallel and cache-less verification must agree bit for bit"
    );
    assert_eq!(
        report.sync_run_misses(),
        2,
        "each design must simulate its sync reference exactly once"
    );
    assert_eq!(
        report.sync_run_hits(),
        report.points.len() - 2,
        "every other sweep point must reuse the cached sync reference"
    );
    assert_eq!(
        report.engine_report.compiled_model_misses, 4,
        "exactly one sync + one datapath model compile per design"
    );
    assert!(
        report.compile_reuses >= report.points.len() - 2,
        "sweep points must bind onto shared compiled models"
    );
    assert_eq!(
        report.engine_report.sizing_misses, 2,
        "exactly one arrival analysis per design"
    );
    // Packed campaign gates: probe lanes must match detached scalar flows
    // bit for bit, and the bit-parallel kernel must clear the 5x floor in
    // scalar-equivalent lane events per second.
    assert!(
        report.bit_identical_packed,
        "probed campaign lanes must be bit-identical to scalar flows"
    );
    assert!(
        report.packed_speedup() >= 5.0,
        "packed campaign must deliver >= 5x scalar-equivalent lane events/s, got {:.1}x",
        report.packed_speedup()
    );
    let json = report.to_json();
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json:\n{json}");
}
