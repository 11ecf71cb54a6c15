//! The `fig-ladder` workload: everything the fast-fidelity figures
//! simulate, then the figures themselves.
//!
//! Seven cluster configurations (the four CloudSuite apps and the two
//! banking VM classes on big cores, and Web Search on the little in-order
//! cluster of the heterogeneous study) are swept over the paper's
//! 20-point ladder with `FrequencySweep::run_serial`, through
//! `MeasurementCache::shared(SimMeasurer::fast(..), ntc_bench::shared_store())`.
//! That is 140 cold measurements, one operation each. Figures 2, 3 and 4,
//! the VM degradation floors and the heterogeneous study are then
//! assembled by `ntc_bench` from the warm store, which must add no miss.
//!
//! The seed feeds `SimMeasurer::with_seed`. Each measurement is stored
//! under the key of the default-seed measurer the figure functions use,
//! so the figures are assembled from the seeded measurements; at the
//! default seed this is exactly the path of the figure binaries.

use crate::report::{Checks, Measured, SimTally};
use crate::trace::{within, Recorder};
use crate::{digest, stats};
use ntc_bench::Fidelity;
use ntc_core::{
    ClusterMeasurement, ClusterMeasurer, FrequencySweep, MeasureError, MeasurementCache,
    MeasurementKey, ServerModel, SimMeasurer, SweepResult,
};
use ntc_qos::QosCurve;
use ntc_sampling::SampleWindow;
use ntc_sim::{ClusterConfig, ClusterSim, SimConfig};
use ntc_workloads::{prewarm_cluster, CloudSuiteApp, ProfileStream, WorkloadProfile};
use std::cell::RefCell;
use std::time::{Duration, Instant};

pub const NAME: &str = "fig-ladder";

/// `SimMeasurer::fast`'s windows.
const WINDOW: SampleWindow = SampleWindow {
    warmup_cycles: 16_000,
    measure_cycles: 16_000,
};

/// The artifacts assembled from the warm store, as named under `results/`.
const ARTIFACTS: [&str; 8] = [
    "fig2.json",
    "fig3a.json",
    "fig3b.json",
    "fig3c.json",
    "fig4a.json",
    "fig4b.json",
    "fig4c.json",
    "fig_hetero.json",
];

/// Timed samples of set-up before each sweep and after the last, so the
/// samples span the run; `setup_s` is the median of all of them.
const SETUP_SAMPLES_PER_GAP: usize = 5;
/// Set-ups per timed sample. One set-up takes a few microseconds, so a
/// sample of 2048 lasts milliseconds.
const SETUP_BATCH: u32 = 2048;

/// One swept cluster configuration.
struct Config {
    name: String,
    profile: WorkloadProfile,
    /// `Some` for a non-default cluster (the little in-order one).
    cluster: Option<ClusterConfig>,
}

impl Config {
    /// The measurer the figure functions use for this configuration, at
    /// `seed`.
    fn library(&self, seed: u64) -> SimMeasurer {
        let measurer = SimMeasurer::fast(self.profile.clone()).with_seed(seed);
        match self.cluster {
            Some(cluster) => measurer.with_cluster(cluster),
            None => measurer,
        }
    }

    /// The cluster `SimMeasurer` simulates at `mhz`.
    fn sim_config(&self, mhz: f64) -> SimConfig {
        let paper = SimConfig::paper_cluster(mhz);
        match self.cluster {
            Some(mut cluster) => {
                cluster.core_mhz = mhz;
                SimConfig::from_cluster(cluster, paper.dram, paper.seed)
            }
            None => paper,
        }
    }
}

/// Everything built before the first operation.
struct Setup {
    server: ServerModel,
    configs: Vec<Config>,
}

fn setup() -> Setup {
    let big = |profile: WorkloadProfile| Config {
        name: profile.name.clone(),
        profile,
        cluster: None,
    };
    let web_search = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
    let little = Config {
        name: format!("{} (little)", web_search.name),
        profile: web_search,
        cluster: Some(ClusterConfig::little_cluster(100.0)),
    };
    // The banking-VM sweeps hold the slowest ops, the tail `point_ms_p90`
    // reads. They run first and last, so the tail samples host speed at
    // both ends of the run rather than in one stretch of it.
    let configs = std::iter::once(WorkloadProfile::banking_low_mem(4.0))
        .chain(
            CloudSuiteApp::ALL
                .iter()
                .map(|&app| WorkloadProfile::cloudsuite(app)),
        )
        .map(big)
        .chain([little, big(WorkloadProfile::banking_high_mem(4.0))])
        .collect();
    Setup {
        server: ntc_bench::paper_server(),
        configs,
    }
}

/// Measures one configuration at `seed`, keyed as the default-seed
/// measurer. Untraced, it is `SimMeasurer::measure` itself; traced, it
/// makes the same public calls with a span around each phase.
///
/// [`Point::traced`] is a copy of `SimMeasurer::measure` and must follow
/// it: a change there that keeps outputs identical but takes another path
/// (a warmed-state snapshot, say) moves untraced `wall_s` while the traced
/// per-layer times still measure this copy. The replay check and the
/// traced-against-untraced `point_ms_p50` check in `main.rs` catch output
/// drift and gross host-time drift; nothing catches a small one.
struct Point<'a> {
    config: &'a Config,
    seed: u64,
    library: SimMeasurer,
    keyed_as: SimMeasurer,
    trace: Option<(&'a Recorder, &'a RefCell<SimTally>)>,
}

impl<'a> Point<'a> {
    fn new(
        config: &'a Config,
        seed: u64,
        trace: Option<(&'a Recorder, &'a RefCell<SimTally>)>,
    ) -> Self {
        Point {
            config,
            seed,
            library: config.library(seed),
            keyed_as: config.library(0),
            trace,
        }
    }

    fn traced(
        &self,
        recorder: &Recorder,
        tally: &RefCell<SimTally>,
        mhz: f64,
    ) -> Result<ClusterMeasurement, MeasureError> {
        if !(mhz.is_finite() && mhz > 0.0) {
            return Err(MeasureError::InvalidFrequency { mhz });
        }
        let profile = &self.config.profile;
        let seed = self.seed;
        let mut sim = recorder.span("sim.build", None, || {
            ClusterSim::new(self.config.sim_config(mhz), |core| {
                ProfileStream::new(profile.clone(), seed.wrapping_mul(64) + u64::from(core))
            })
        });
        recorder.span("workloads.prewarm", None, || {
            prewarm_cluster(&mut sim, profile)
        });
        recorder.span("sim.warm_up", None, || sim.warm_up(WINDOW.warmup_cycles));
        let window = recorder.span("sim.measure", None, || {
            sim.run_measured(WINDOW.measure_cycles)
        });
        let mut tally = tally.borrow_mut();
        tally.add_window(&window);
        tally.cycles += sim.cycle();
        tally.skipped_cycles += sim.skipped_cycles();
        *tally.committed.entry(profile.name.clone()).or_default() += sim.stats().instrs();
        Ok(ClusterMeasurement::from_stats(&window))
    }
}

impl ClusterMeasurer for Point<'_> {
    fn measure(&self, mhz: f64) -> Result<ClusterMeasurement, MeasureError> {
        match self.trace {
            None => self.library.measure(mhz),
            Some((recorder, tally)) => self.traced(recorder, tally, mhz),
        }
    }

    fn key(&self, mhz: f64) -> Option<MeasurementKey> {
        self.keyed_as.key(mhz)
    }
}

/// One operation per call: times it and, traced, opens its `core.measure`
/// span with the operation's id.
struct Op<'a, M> {
    inner: M,
    op_ms: &'a RefCell<Vec<f64>>,
    recorder: Option<&'a Recorder>,
}

impl<M: ClusterMeasurer> ClusterMeasurer for Op<'_, M> {
    fn measure(&self, mhz: f64) -> Result<ClusterMeasurement, MeasureError> {
        let id = self.op_ms.borrow().len() as u64;
        let start = Instant::now();
        let result = within(self.recorder, "core.measure", Some(id), || {
            self.inner.measure(mhz)
        });
        self.op_ms
            .borrow_mut()
            .push(start.elapsed().as_secs_f64() * 1e3);
        result
    }

    fn key(&self, mhz: f64) -> Option<MeasurementKey> {
        self.inner.key(mhz)
    }
}

/// The assembled artifacts, in [`ARTIFACTS`] order.
fn assemble(recorder: Option<&Recorder>) -> Vec<String> {
    let fig2 = within(recorder, "bench.fig2_qos", None, || {
        ntc_bench::fig2_qos(Fidelity::Fast)
    });
    let floors = within(recorder, "bench.vm_degradation_floors", None, || {
        ntc_bench::vm_degradation_floors(Fidelity::Fast)
    });
    std::hint::black_box(floors);
    let fig3 = within(recorder, "bench.fig3_efficiency", None, || {
        ntc_bench::fig3_efficiency(Fidelity::Fast)
    });
    let fig4 = within(recorder, "bench.fig4_efficiency", None, || {
        ntc_bench::fig4_efficiency(Fidelity::Fast)
    });
    let hetero = within(recorder, "bench.fig_hetero", None, || {
        ntc_bench::fig_hetero(Fidelity::Fast)
    });
    std::iter::once(fig2.0.to_json())
        .chain(fig3.iter().chain(&fig4).map(|f| f.to_json()))
        .chain(std::iter::once(hetero.to_json()))
        .collect()
}

/// Runs the workload once. With a recorder, every layer call is spanned
/// and the simulator's phases are reached through [`Point::traced`].
pub fn run(seed: u64, recorder: Option<&Recorder>) -> Measured {
    let Setup { server, configs } = setup();

    let store = ntc_bench::shared_store();
    let tally = RefCell::new(SimTally::default());
    let op_ms = RefCell::new(Vec::new());
    let trace = recorder.map(|r| (r, &tally));

    // Untraced runs time set-up between the sweeps and leave that time
    // out of `wall_s`; traced runs report no `setup_s` and skip it.
    let mut setup_s = Vec::new();
    let mut setup_spent = Duration::ZERO;
    let mut sample_setup = || {
        if recorder.is_some() {
            return;
        }
        let gap = Instant::now();
        for _ in 0..SETUP_SAMPLES_PER_GAP {
            let start = Instant::now();
            for _ in 0..SETUP_BATCH {
                std::hint::black_box(setup());
            }
            setup_s.push(start.elapsed().as_secs_f64() / f64::from(SETUP_BATCH));
        }
        setup_spent += gap.elapsed();
    };

    let start = Instant::now();
    let (sweeps, artifacts, assembly_misses, hits_before) =
        within(recorder, "bench.assemble", None, || {
            let sweeps: Vec<Result<SweepResult, String>> = configs
                .iter()
                .map(|config| {
                    sample_setup();
                    let measurer = Op {
                        inner: MeasurementCache::shared(
                            Point::new(config, seed, trace),
                            store.clone(),
                        ),
                        op_ms: &op_ms,
                        recorder,
                    };
                    within(recorder, "core.sweep", None, || {
                        FrequencySweep::paper_ladder()
                            .run_serial(&server, &measurer)
                            .map_err(|e| e.to_string())
                    })
                })
                .collect();
            sample_setup();
            let (hits, misses) = (store.hits(), store.misses());
            let artifacts = assemble(recorder);
            (sweeps, artifacts, store.misses() - misses, hits)
        });
    let wall_s = (start.elapsed() - setup_spent).as_secs_f64();

    let mut measured = Measured {
        setup_s: if setup_s.is_empty() {
            0.0
        } else {
            stats::median(&setup_s)
        },
        wall_s,
        op_ms: op_ms.into_inner(),
        cache_hits: store.hits(),
        cache_misses: store.misses(),
        ..Measured::default()
    };
    eprintln!(
        "{NAME}: {} sweeps, {} ops; assembly added {} hits and {assembly_misses} misses",
        sweeps.len(),
        measured.op_ms.len(),
        store.hits() - hits_before,
    );
    check(
        seed,
        &configs,
        &sweeps,
        &artifacts,
        assembly_misses,
        &mut measured,
    );
    replay(seed, &configs, &sweeps, &mut measured.checks);
    measured.qos_curve_ms = qos_curve_ms(&configs, &sweeps);
    measured.sim = tally.into_inner();
    measured
        .sim
        .price_streams(configs.iter().map(|c| &c.profile), seed.wrapping_mul(64));
    measured.user_instrs = sweeps
        .iter()
        .flatten()
        .flat_map(|s| s.points())
        .map(|p| (p.cluster.uipc * WINDOW.measure_cycles as f64).round() as u64)
        .sum();
    measured
}

fn measurement_digest(points: &[ClusterMeasurement]) -> String {
    let bits: Vec<u8> = points
        .iter()
        .flat_map(|m| {
            [
                m.mhz,
                m.uips,
                m.uipc,
                m.llc_accesses_per_sec,
                m.xbar_flits_per_sec,
                m.dram_read_bps,
                m.dram_write_bps,
            ]
        })
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    digest::digest(&bits)
}

fn plausible(m: &ClusterMeasurement) -> bool {
    [m.uips, m.uipc, m.llc_accesses_per_sec, m.xbar_flits_per_sec]
        .iter()
        .all(|x| x.is_finite() && *x > 0.0)
        && m.dram_read_bps.is_finite()
        && m.dram_write_bps.is_finite()
}

/// Output checks: each sweep's measurements against the digest table,
/// the artifacts against the table and, at the default seed, byte for
/// byte against `results/`.
fn check(
    seed: u64,
    configs: &[Config],
    sweeps: &[Result<SweepResult, String>],
    artifacts: &[String],
    assembly_misses: u64,
    measured: &mut Measured,
) {
    let ladder = FrequencySweep::paper_ladder().frequencies().len();
    let results = crate::repo_root().join("results");
    for (config, sweep) in configs.iter().zip(sweeps) {
        let (ok, what) = match sweep {
            Err(e) => (false, format!("{}: sweep failed: {e}", config.name)),
            Ok(sweep) => {
                let points: Vec<ClusterMeasurement> =
                    sweep.points().iter().map(|p| p.cluster).collect();
                let d = measurement_digest(&points);
                let verdict = digest::verdict(NAME, seed, &config.name, &d);
                measured.digests.push((config.name.clone(), d));
                (
                    points.len() == ladder
                        && points.iter().all(plausible)
                        && verdict != digest::Verdict::Mismatch,
                    format!(
                        "{}: {} points, digest {verdict:?}",
                        config.name,
                        points.len()
                    ),
                )
            }
        };
        measured.checks.record(ladder as u64, ok, &what);
    }
    for (name, json) in ARTIFACTS.iter().zip(artifacts) {
        let d = digest::digest(json.as_bytes());
        let verdict = digest::verdict(NAME, seed, name, &d);
        measured.digests.push(((*name).to_owned(), d));
        let matches_results = (seed == 0).then(|| {
            std::fs::read_to_string(results.join(name)).is_ok_and(|committed| committed == *json)
        });
        measured.checks.record(
            1,
            assembly_misses == 0
                && serde_json::from_str::<serde_json::Value>(json).is_ok()
                && verdict != digest::Verdict::Mismatch
                && matches_results != Some(false),
            &format!(
                "{name}: digest {verdict:?}, byte-equal to results/: {matches_results:?}, \
                 assembly misses {assembly_misses}"
            ),
        );
    }
}

/// Re-measures one seed-chosen point with a fresh `SimMeasurer` and
/// checks that it reproduces the swept value bit for bit (in a traced
/// run this also checks [`Point::traced`] against the library).
fn replay(
    seed: u64,
    configs: &[Config],
    sweeps: &[Result<SweepResult, String>],
    checks: &mut Checks,
) {
    let ladder = FrequencySweep::paper_ladder();
    let n = ladder.frequencies().len();
    let index = (seed % (configs.len() * n) as u64) as usize;
    let (config, mhz) = (&configs[index / n], ladder.frequencies()[index % n]);
    let swept = sweeps[index / n]
        .as_ref()
        .ok()
        .and_then(|s| s.at(mhz))
        .map(|p| p.cluster);
    let fresh = config.library(seed).measure(mhz).ok();
    checks.record(
        1,
        swept.is_some() && swept == fresh,
        &format!("replay of {} at {mhz} MHz", config.name),
    );
}

/// Host time of building the four CloudSuite QoS curves from the swept
/// samples, median of five (ms).
fn qos_curve_ms(configs: &[Config], sweeps: &[Result<SweepResult, String>]) -> f64 {
    let curves: Vec<(&WorkloadProfile, Vec<(f64, f64)>)> = configs
        .iter()
        .zip(sweeps)
        .filter(|(c, _)| c.cluster.is_none() && c.profile.qos_budget_ms().is_some())
        .filter_map(|(c, s)| Some((&c.profile, s.as_ref().ok()?.uips_samples())))
        .collect();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for (profile, samples) in &curves {
                std::hint::black_box(QosCurve::build(profile, samples));
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    fn span_names(spans: &[Span]) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The traced replica makes the same public calls as
    /// `SimMeasurer::measure`, so it must return identical measurements.
    #[test]
    fn traced_point_equals_sim_measurer() {
        let setup = setup();
        let recorder = Recorder::new();
        let tally = RefCell::new(SimTally::default());
        for (config_index, mhz, seed) in [(2, 2000.0, 0), (5, 600.0, 0), (0, 300.0, 5)] {
            let config = &setup.configs[config_index];
            let traced = Point::new(config, seed, Some((&recorder, &tally)));
            let untraced = Point::new(config, seed, None);
            let expected = config.library(seed).measure(mhz).unwrap();
            assert_eq!(
                traced.measure(mhz).unwrap(),
                expected,
                "{} {mhz}",
                config.name
            );
            assert_eq!(untraced.measure(mhz).unwrap(), expected);
            assert_eq!(
                traced.key(mhz),
                config.library(0).key(mhz),
                "keyed as seed 0"
            );
        }
        let spans = recorder.into_spans();
        assert_eq!(
            span_names(&spans),
            [
                "sim.build",
                "sim.measure",
                "sim.warm_up",
                "workloads.prewarm"
            ]
        );
        let tally = tally.into_inner();
        assert_eq!(tally.measured_cycles, 3 * WINDOW.measure_cycles);
        assert!(tally.measured_user_instrs > 0 && tally.committed["Web Search"] > 0);
    }
}
