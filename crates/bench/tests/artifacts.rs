//! Byte-level regression check for the committed `results/` artifacts.
//!
//! Every artifact the `src/bin` regenerators emit at fast fidelity must
//! byte-reproduce from the current code — the repository's committed JSON
//! *is* the expected output, so any simulator or model change that moves
//! a number shows up as a reviewable `results/` diff instead of silent
//! drift. (`ablation_variation` prints a table but writes no JSON, so it
//! has no artifact to cover.)
//!
//! The sim-backed artifacts take minutes under a debug build (the tier-1
//! suite), so those are exercised in release runs only
//! (`cargo test --release -p ntc-bench --test artifacts`, as CI does);
//! the analytic artifacts are cheap and always checked.

use ntc_bench::Fidelity;

fn committed(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed artifact {} must exist: {e}", path.display()))
}

#[track_caller]
fn assert_reproduces(name: &str, regenerated: &str) {
    assert_eq!(
        regenerated,
        committed(name),
        "results/{name} must byte-reproduce from the current code; \
         re-run the corresponding src/bin regenerator and commit the diff"
    );
}

#[test]
fn analytic_artifacts_byte_reproduce() {
    let (vdd, power) = ntc_bench::fig1_curves();
    assert_reproduces("fig1_vdd.json", &vdd.to_json());
    assert_reproduces("fig1_power.json", &power.to_json());

    let rows = ntc_bench::table1_dram();
    assert_reproduces(
        "table1.json",
        &serde_json::to_string_pretty(&rows).expect("rows serialize"),
    );

    assert_reproduces("ablation_bias.json", &ntc_bench::ablation_bias().to_json());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "sim-backed regeneration is release-speed work; CI runs it via cargo test --release"
)]
fn simulated_artifacts_byte_reproduce_at_fast_fidelity() {
    // One process for all figures: the shared measurement store lets
    // fig3/fig4 and the ablations reuse the ladders fig2 simulated.
    let fidelity = Fidelity::Fast;

    let (fig2, _floors) = ntc_bench::fig2_qos(fidelity);
    assert_reproduces("fig2.json", &fig2.to_json());

    let fig3 = ntc_bench::fig3_efficiency(fidelity);
    for (panel, name) in fig3.iter().zip(["fig3a.json", "fig3b.json", "fig3c.json"]) {
        assert_reproduces(name, &panel.to_json());
    }

    let fig4 = ntc_bench::fig4_efficiency(fidelity);
    for (panel, name) in fig4.iter().zip(["fig4a.json", "fig4b.json", "fig4c.json"]) {
        assert_reproduces(name, &panel.to_json());
    }

    assert_reproduces(
        "ablation_lpddr4.json",
        &ntc_bench::ablation_lpddr4(fidelity).to_json(),
    );
    assert_reproduces(
        "ablation_uncore.json",
        &ntc_bench::ablation_uncore(fidelity).to_json(),
    );
    assert_reproduces(
        "ablation_prefetch.json",
        &ntc_bench::ablation_prefetch(fidelity).to_json(),
    );
    assert_reproduces(
        "ablation_governor.json",
        &serde_json::to_string_pretty(&ntc_bench::ablation_governor(fidelity))
            .expect("rows serialize"),
    );
    assert_reproduces(
        "ablation_consolidation.json",
        &serde_json::to_string_pretty(&ntc_bench::ablation_consolidation(fidelity))
            .expect("plans serialize"),
    );

    // The heterogeneous study shares the big-cluster ladders the figures
    // above already simulated; only the little-cluster ladder is new work.
    assert_reproduces(
        "fig_hetero.json",
        &ntc_bench::fig_hetero(fidelity).to_json(),
    );
}

/// The "measured QoS floor" column of EXPERIMENTS.md's Figure 2 table,
/// as `(application, MHz)` rows.
fn documented_qos_floors() -> Vec<(String, f64)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must exist: {e}", path.display()));
    doc.lines()
        .skip_while(|l| !l.starts_with("| application | paper window | measured QoS floor |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let mhz = cells[3]
                .strip_suffix(" MHz")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("unparsable QoS floor in row {row:?}"));
            (cells[1].to_owned(), mhz)
        })
        .collect()
}

/// EXPERIMENTS.md's QoS floors must be what the committed `fig2.json`
/// says: per application, the lowest frequency whose normalized p99
/// meets QoS under [`ntc_qos::QosPoint::meets_qos`].
#[test]
fn documented_qos_floors_match_fig2_artifact() {
    let fig2: serde_json::Value =
        serde_json::from_str(&committed("fig2.json")).expect("fig2.json parses");
    let series = fig2["series"].as_seq().expect("fig2 has series");
    let documented = documented_qos_floors();
    assert_eq!(
        documented.len(),
        series.len(),
        "one documented floor per Figure 2 series"
    );
    for s in series {
        let label = s["label"].as_str().expect("series label");
        let floor = s["points"]
            .as_seq()
            .expect("series points")
            .iter()
            .map(|p| ntc_qos::QosPoint {
                mhz: p[0].as_f64().expect("MHz"),
                uips: 0.0,
                normalized_l99: p[1].as_f64().expect("normalized p99"),
            })
            .filter(ntc_qos::QosPoint::meets_qos)
            .map(|p| p.mhz)
            .fold(f64::INFINITY, f64::min);
        let (_, doc_floor) = documented
            .iter()
            .find(|(app, _)| app == label)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no QoS floor row for {label}"));
        assert_eq!(
            *doc_floor, floor,
            "EXPERIMENTS.md says {label}'s QoS floor is {doc_floor} MHz; \
             results/fig2.json says {floor} MHz"
        );
    }
}
