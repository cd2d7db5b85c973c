//! Seeded workload generation.
//!
//! Everything the benchmark submits is made here, before the timed window,
//! from the `--seed` argument alone: designs, the EDIF text the service
//! parses, stimuli and the request stream of one *pass*. The program under
//! test receives only these generated inputs. A pass is the unit the runner
//! repeats (each on a fresh engine), so every pass of one seed issues the
//! same requests in the same order.

use desync_bench::workloads::{dlx_program, dlx_stimulus};
use desync_circuits::counter::{binary_counter, lfsr, ring_counter};
use desync_circuits::random::RandomCircuitConfig;
use desync_circuits::{DlxConfig, FirConfig, LinearPipelineConfig};
use desync_core::{DesyncOptions, Protocol, StoreConfig};
use desync_netlist::{to_edif, CellLibrary, Fnv1a, NetId, Netlist};
use desync_sim::{PackedVectorSource, VectorSource, MAX_LANES};
use std::sync::Arc;

/// The benchmark's workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct designs arriving as EDIF text, each desynchronized under
    /// every protocol on a bounded store.
    Ingest,
    /// Scalar flow-equivalence points over a protocol × margin grid.
    Sweep,
    /// 64-lane packed equivalence points over the same grid.
    Campaign,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::Ingest, Kind::Sweep, Kind::Campaign];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest_design",
            Kind::Sweep => "verify_sweep",
            Kind::Campaign => "campaign",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Margin every `ingest_design` request uses.
pub const INGEST_MARGIN: f64 = 0.1;

/// Margins of the `verify_sweep` / `campaign` grid. Margin is part of the
/// Controlled stage's key, so each one is a Controlled miss.
pub const GRID_MARGINS: [f64; 4] = [0.05, 0.1, 0.15, 0.2];

/// Captures compared per `verify_sweep` point: enough that the scalar
/// kernel, not construction, dominates a point.
pub const SWEEP_CYCLES: usize = 96;

/// Captures compared per lane of a `campaign` point.
pub const CAMPAIGN_CYCLES: usize = 16;

/// A small deterministic generator (SplitMix64), so workload generation
/// depends on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a request hands the service for one design.
#[derive(Debug, Clone)]
pub enum Input {
    /// EDIF text; each request parses it with `from_edif` before it
    /// submits.
    Edif(String),
    /// A netlist with its scalar verification stimulus.
    Sweep {
        /// The design.
        netlist: Arc<Netlist>,
        /// Stimulus of the co-simulation.
        stimulus: VectorSource,
    },
    /// A netlist with its packed 64-lane stimulus.
    Campaign {
        /// The design.
        netlist: Arc<Netlist>,
        /// One pseudo-random lane per seed.
        stimulus: PackedVectorSource,
    },
}

/// One design of a workload.
#[derive(Debug, Clone)]
pub struct Design {
    /// Module name (unique within a workload).
    pub name: String,
    /// Cells of the synchronous netlist.
    pub cells: usize,
    /// What requests over this design carry.
    pub input: Input,
}

/// One request of a pass: a design under one set of options.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Index into [`Workload::designs`].
    pub design: usize,
    /// Flow options of the request.
    pub options: DesyncOptions,
}

/// The generated inputs of one workload and seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed it was generated from.
    pub seed: u64,
    /// The cell library every request uses.
    pub library: Arc<CellLibrary>,
    /// The designs requests refer to.
    pub designs: Vec<Design>,
    /// The request stream of one pass, in submission order.
    pub points: Vec<Point>,
    /// Store configuration of each pass's fresh engine.
    pub store: StoreConfig,
}

impl Workload {
    /// Generates the inputs of `kind` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a circuit generator rejects its configuration, which the
    /// fixed parameter ranges below rule out.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let mut rng = SplitMix::new(seed ^ 0x6465_7379_6e63_2d62);
        let library = Arc::new(CellLibrary::generic_90nm());
        match kind {
            Kind::Ingest => ingest(&mut rng, seed, library),
            Kind::Sweep | Kind::Campaign => grid(kind, &mut rng, seed, library),
        }
    }

    /// A digest of every generated input, for determinism checks.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for design in &self.designs {
            h.write_str(&design.name);
            h.write_usize(design.cells);
            match &design.input {
                Input::Edif(text) => h.write_str(text),
                Input::Sweep { netlist, stimulus } => {
                    h.write_u64(netlist.structural_hash());
                    h.write_u64(stimulus.content_digest());
                }
                Input::Campaign { netlist, stimulus } => {
                    h.write_u64(netlist.structural_hash());
                    h.write_u64(stimulus.content_digest());
                }
            }
        }
        for point in &self.points {
            h.write_usize(point.design);
            h.write_str(point.options.protocol.name());
            h.write_u64(point.options.matched_delay_margin.to_bits());
        }
        h.write_u64(self.store.capacity.map_or(u64::MAX, |c| c as u64));
        h.finish()
    }

    /// Captures compared per request (0 for `ingest_design`).
    pub fn cycles(&self) -> usize {
        match self.kind {
            Kind::Ingest => 0,
            Kind::Sweep => SWEEP_CYCLES,
            Kind::Campaign => CAMPAIGN_CYCLES,
        }
    }
}

fn options(protocol: Protocol, margin: f64) -> DesyncOptions {
    DesyncOptions::default()
        .with_protocol(protocol)
        .with_margin(margin)
}

fn renamed(mut netlist: Netlist, name: &str) -> Netlist {
    netlist.set_name(name);
    netlist
}

/// `ingest_design`: distinct designs — the DLX, random register clouds,
/// balanced and unbalanced pipelines, FIR filters and counters/LFSRs —
/// each submitted under all three protocols at one margin. The seed draws
/// the clouds' wiring; cloud sizes, the rest of the catalogue and the
/// order are fixed, so every seed's pass holds the same amount of work in
/// the same arrangement. The DLX's requests, and the one queued behind
/// each, are about 3% of a pass: the p90 then lies among the light
/// designs, well clear of the step the DLX puts at the top of the
/// latency distribution.
fn ingest(rng: &mut SplitMix, seed: u64, library: Arc<CellLibrary>) -> Workload {
    let mut netlists: Vec<Netlist> = vec![DlxConfig::default().generate().expect("dlx")];
    for i in 0..12 {
        let config = RandomCircuitConfig {
            inputs: 6,
            flip_flops: 12,
            gates: 48,
            outputs: 6,
            seed: rng.next_u64(),
        };
        let netlist = config.generate().expect("random cloud");
        netlists.push(renamed(netlist, &format!("cloud{i}_{seed}")));
    }
    let balanced = [
        (3, 8, 3),
        (4, 4, 2),
        (5, 8, 4),
        (6, 4, 3),
        (3, 4, 2),
        (4, 8, 3),
        (5, 4, 2),
        (6, 8, 2),
    ];
    for (s, w, d) in balanced {
        let netlist = LinearPipelineConfig::balanced(s, w, d)
            .generate()
            .expect("pipeline");
        netlists.push(renamed(netlist, &format!("pipe{s}x{w}d{d}")));
    }
    for (s, b, i) in [
        (4, 1, 2),
        (5, 2, 3),
        (6, 1, 3),
        (4, 2, 2),
        (5, 1, 2),
        (6, 2, 2),
    ] {
        let netlist = LinearPipelineConfig::unbalanced(s, 8, b, i)
            .generate()
            .expect("pipeline");
        netlists.push(renamed(netlist, &format!("pipe{s}x8b{b}i{i}")));
    }
    for taps in 3..=8 {
        netlists.push(FirConfig::with_taps(taps, 8).generate().expect("fir"));
    }
    for width in [8, 12] {
        netlists.push(binary_counter(width).expect("counter"));
    }
    for width in [10, 14] {
        netlists.push(ring_counter(width).expect("ring counter"));
    }
    for width in [12, 16] {
        netlists.push(lfsr(width).expect("lfsr"));
    }

    let store = StoreConfig::default().with_capacity(ingest_capacity(&netlists));
    let designs: Vec<Design> = netlists
        .iter()
        .map(|n| Design {
            name: n.name().to_string(),
            cells: n.num_cells(),
            input: Input::Edif(to_edif(n)),
        })
        .collect();
    let points = (0..designs.len())
        .flat_map(|design| {
            Protocol::all().iter().map(move |&p| Point {
                design,
                options: options(p, INGEST_MARGIN),
            })
        })
        .collect();
    Workload {
        kind: Kind::Ingest,
        seed,
        library,
        designs,
        points,
        store,
    }
}

/// Store capacity of an `ingest_design` pass, in store weight units: a
/// quarter of the pass's summed netlist size. A design's artifacts weigh
/// several times its netlist, so this holds a few designs' worth — enough
/// for a design's three protocol requests to share its early stages, far
/// below the pass's working set, so the store evicts.
fn ingest_capacity(netlists: &[Netlist]) -> usize {
    let total: usize = netlists.iter().map(|n| n.num_cells() + n.num_nets()).sum();
    (total / 4).max(1)
}

/// Non-clock primary inputs: the nets a stimulus drives.
pub fn data_inputs(netlist: &Netlist) -> Vec<NetId> {
    netlist
        .inputs()
        .iter()
        .copied()
        .filter(|&n| netlist.net(n).name != "clk")
        .collect()
}

/// `verify_sweep` / `campaign`: a pipeline, a FIR filter and the DLX, each
/// under every protocol × [`GRID_MARGINS`] point on an unbounded store. The
/// designs are fixed; the seed draws the stimuli.
fn grid(kind: Kind, rng: &mut SplitMix, seed: u64, library: Arc<CellLibrary>) -> Workload {
    let pipe = LinearPipelineConfig::balanced(6, 8, 4)
        .generate()
        .expect("pipeline");
    let fir = FirConfig::with_taps(5, 8).generate().expect("fir");
    let dlx = DlxConfig::default().generate().expect("dlx");
    let designs: Vec<Design> = [pipe, fir, dlx]
        .into_iter()
        .map(|netlist| {
            let input = match kind {
                Kind::Campaign => {
                    let seeds: Vec<u64> = (0..MAX_LANES).map(|_| rng.next_u64()).collect();
                    let stimulus = PackedVectorSource::pseudo_random(data_inputs(&netlist), &seeds);
                    Input::Campaign {
                        netlist: Arc::new(netlist.clone()),
                        stimulus,
                    }
                }
                _ => {
                    let stimulus = if netlist.name() == "dlx" {
                        dlx_stimulus(&netlist, &dlx_program())
                    } else {
                        VectorSource::pseudo_random(data_inputs(&netlist), rng.next_u64())
                    };
                    Input::Sweep {
                        netlist: Arc::new(netlist.clone()),
                        stimulus,
                    }
                }
            };
            Design {
                name: netlist.name().to_string(),
                cells: netlist.num_cells(),
                input,
            }
        })
        .collect();
    let mut points = Vec::new();
    for design in 0..designs.len() {
        for &protocol in Protocol::all() {
            for &margin in &GRID_MARGINS {
                points.push(Point {
                    design,
                    options: options(protocol, margin),
                });
            }
        }
    }
    Workload {
        kind,
        seed,
        library,
        designs,
        points,
        store: StoreConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desync_core::DesyncFlow;
    use desync_netlist::from_edif;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 7);
            let b = Workload::generate(kind, 7);
            assert_eq!(a.digest(), b.digest(), "{}", kind.name());
            assert_eq!(a.points.len(), b.points.len());
        }
    }

    #[test]
    fn seeds_change_the_inputs_but_not_the_pass_shape() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 1);
            let b = Workload::generate(kind, 2);
            assert_ne!(a.digest(), b.digest(), "{}", kind.name());
            assert_eq!(a.points.len(), b.points.len());
            assert_eq!(a.designs.len(), b.designs.len());
        }
    }

    #[test]
    fn ingest_designs_are_distinct_and_lint_clean() {
        let library = CellLibrary::generic_90nm();
        for seed in [1, 20041, 3] {
            let w = Workload::generate(Kind::Ingest, seed);
            let mut names: Vec<&str> = w.designs.iter().map(|d| d.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), w.designs.len(), "seed {seed}");
            assert_eq!(w.points.len(), 3 * w.designs.len());
            for design in &w.designs {
                let Input::Edif(text) = &design.input else {
                    panic!("ingest designs arrive as EDIF");
                };
                let netlist = from_edif(text).expect("generated EDIF parses");
                let mut flow =
                    DesyncFlow::new(&netlist, &library, DesyncOptions::default()).expect("flow");
                let lint = flow.lint().expect("lint runs");
                assert!(
                    lint.is_clean(),
                    "seed {seed}: {} is not lint-clean",
                    design.name
                );
            }
        }
    }
}
