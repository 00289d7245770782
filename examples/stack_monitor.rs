//! 3D-stack monitoring: one PT sensor per tier of a 4-tier TSV stack,
//! tracking a transient workload heat-up against thermal ground truth.
//!
//! This is the paper's application scenario: intra-die temperature and
//! threshold monitoring of a TSV-integrated 3D-IC.
//!
//! Run with: `cargo run --release --example stack_monitor`

use tsv_pt_sensor::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::n65();
    let model = VariationModel::new(&tech);
    let mut rng = ptsim_rng::Pcg64::seed_from_u64(42);

    // Four independently-fabricated dies stacked with TSVs.
    let dies: Vec<DieSample> = (0..4)
        .map(|i| model.sample_die_with_id(&mut rng, i))
        .collect();
    let topology = StackTopology::reference_four_tier();
    let mut monitor = StackMonitor::new(
        topology,
        dies,
        DieSite::new(0.3, 0.3),
        &tech,
        SensorSpec::default_65nm(),
    )?;

    // Boot: stack idle at ambient, every tier self-calibrates.
    monitor.calibrate_all(&mut rng)?;
    println!("all 4 tiers self-calibrated at 25 °C ambient\n");

    // Workload: CPU-like hotspot on tier 0 (2 W) plus uniform 0.5 W on
    // tier 2 (memory refresh).
    let mut thermal = monitor.build_thermal()?;
    let mut p0 = PowerMap::zero(16, 16)?;
    p0.add_hotspot(0.3, 0.3, 0.12, Watt(2.0))?;
    thermal.set_power(0, p0)?;
    thermal.set_power(2, PowerMap::uniform(16, 16, Watt(0.5))?)?;

    // Transient heat-up: the thinned dies have millisecond-scale thermal
    // time constants, so sample every 2 ms.
    println!(
        "{:>8}  {}",
        "t [ms]",
        (0..4)
            .map(|t| format!("tier{t}: true/read [°C]   "))
            .collect::<String>()
    );
    let mut elapsed_ms = 0.0;
    for _ in 0..10 {
        step_transient(&mut thermal, Seconds(0.002));
        elapsed_ms += 2.0;
        let readings = monitor.read_all(&thermal, &mut rng)?;
        let row: String = readings
            .iter()
            .map(|r| {
                format!(
                    "{:>7.2} /{:>7.2}       ",
                    r.true_temp.0, r.reading.temperature.0
                )
            })
            .collect();
        println!("{elapsed_ms:>8.1}  {row}");
    }

    // Steady state.
    solve_steady_state(&mut thermal, &SolveOptions::default())?;
    let readings = monitor.read_all(&thermal, &mut rng)?;
    println!("\nsteady state:");
    for r in &readings {
        println!(
            "  tier {}: true {:>7.2} °C, read {:>7.2} °C (err {:+.2} °C), \
             stress ΔVtn {:+.3} mV, drift since boot {:+.3} mV",
            r.tier,
            r.true_temp.0,
            r.reading.temperature.0,
            r.temp_error(),
            r.true_stress_shift.0.millivolts(),
            r.vt_drift.0.millivolts(),
        );
    }

    let worst = readings
        .iter()
        .map(|r| r.temp_error().abs())
        .fold(0.0, f64::max);
    println!("\nworst-tier temperature error: {worst:.2} °C (paper reports ±1.5 °C)");
    Ok(())
}
