//! Stack-level monitoring: sensors embedded in a TSV 3D stack.
//!
//! This is the paper's application scenario: one PT sensor per tier of a
//! TSV-stacked 3D-IC, reading intra-die temperature and threshold drift
//! while the stack runs a workload. The monitor wires together the thermal
//! simulator (ground-truth temperature fields), the TSV topology
//! (stress-induced threshold shifts at each sensor site), the Monte-Carlo
//! die population (per-tier process realizations), and the sensors.

use crate::error::SensorError;
use crate::sensor::{PtSensor, Reading, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Micron, Volt};
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_rng::Rng;
use ptsim_thermal::stack::ThermalStack;
use ptsim_tsv::topology::StackTopology;

/// A sensor placed on one tier of a 3D stack.
#[derive(Debug, Clone)]
pub struct SensorNode {
    /// Tier index (0 = bottom).
    pub tier: usize,
    /// Location on the tier in normalized coordinates.
    pub site: DieSite,
    sensor: PtSensor,
}

impl SensorNode {
    /// The underlying sensor.
    #[must_use]
    pub fn sensor(&self) -> &PtSensor {
        &self.sensor
    }
}

/// A monitored 3D stack: topology + per-tier dies + per-tier sensors.
#[derive(Debug, Clone)]
pub struct StackMonitor {
    topology: StackTopology,
    dies: Vec<DieSample>,
    nodes: Vec<SensorNode>,
}

/// One tier's monitoring result at an instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TierReading {
    /// Tier index.
    pub tier: usize,
    /// Ground-truth temperature at the sensor site.
    pub true_temp: Celsius,
    /// The sensor's conversion result.
    pub reading: Reading,
    /// Ground-truth stress-induced `(ΔVtn, ΔVtp)` at the sensor site.
    pub true_stress_shift: (Volt, Volt),
    /// Threshold drift since calibration
    /// `(reading − stored calibration value)` — the sensor's view of shifts
    /// that appeared *after* boot, e.g. stress or thermal drift.
    pub vt_drift: (Volt, Volt),
}

impl TierReading {
    /// Temperature error (reported − truth).
    #[must_use]
    pub fn temp_error(&self) -> f64 {
        self.reading.temperature.0 - self.true_temp.0
    }
}

impl StackMonitor {
    /// Builds a monitor with one sensor per tier at `site`.
    ///
    /// `dies` supplies the per-tier process realizations and must have one
    /// entry per tier of the topology.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] if the die count does not match
    /// the tier count, and propagates sensor construction errors.
    pub fn new(
        topology: StackTopology,
        dies: Vec<DieSample>,
        site: DieSite,
        tech: &Technology,
        spec: SensorSpec,
    ) -> Result<Self, SensorError> {
        let tiers = topology.thermal_config().tiers;
        if dies.len() != tiers {
            return Err(SensorError::InvalidConfig {
                name: "dies (must equal tier count)",
                value: dies.len() as f64,
            });
        }
        let nodes = (0..tiers)
            .map(|tier| {
                Ok(SensorNode {
                    tier,
                    site,
                    sensor: PtSensor::new(tech.clone(), spec)?,
                })
            })
            .collect::<Result<Vec<_>, SensorError>>()?;
        Ok(StackMonitor {
            topology,
            dies,
            nodes,
        })
    }

    /// The stack topology.
    #[must_use]
    pub fn topology(&self) -> &StackTopology {
        &self.topology
    }

    /// Per-tier dies.
    #[must_use]
    pub fn dies(&self) -> &[DieSample] {
        &self.dies
    }

    /// Sensor nodes.
    #[must_use]
    pub fn nodes(&self) -> &[SensorNode] {
        &self.nodes
    }

    /// Builds the thermal network for this stack (TSV conductances applied).
    ///
    /// # Errors
    ///
    /// Propagates thermal construction errors.
    pub fn build_thermal(&self) -> Result<ThermalStack, ptsim_tsv::error::TsvError> {
        self.topology.build_thermal()
    }

    /// Site of a node in µm die coordinates.
    fn site_um(&self, node: &SensorNode) -> (Micron, Micron) {
        let cfg = self.topology.thermal_config();
        (
            Micron(node.site.x * cfg.die_width.0),
            Micron(node.site.y * cfg.die_height.0),
        )
    }

    /// The sensor inputs a node would see given a solved thermal state.
    ///
    /// # Errors
    ///
    /// Propagates temperature-query errors from the thermal stack.
    pub fn inputs_for<'a>(
        &'a self,
        node_index: usize,
        thermal: &ThermalStack,
    ) -> Result<SensorInputs<'a>, ptsim_thermal::error::ThermalError> {
        let node = &self.nodes[node_index];
        let t = thermal.temperature_at(node.tier, node.site.x, node.site.y)?;
        Ok(self.inputs_at(node_index, t))
    }

    /// The sensor inputs a node sees at an externally supplied site
    /// temperature — e.g. the lag-adjusted estimate a closed control loop
    /// attributes to a conversion that integrated over the previous
    /// sample period. Stress-induced threshold shifts are evaluated from
    /// the topology at that temperature.
    ///
    /// # Panics
    ///
    /// Panics if `node_index` is out of range.
    #[must_use]
    pub fn inputs_at(&self, node_index: usize, temp: Celsius) -> SensorInputs<'_> {
        let node = &self.nodes[node_index];
        let (x, y) = self.site_um(node);
        let (svtn, svtp) = self.topology.stress_vt_shift_at(node.tier, x, y, temp);
        SensorInputs::new(&self.dies[node.tier], node.site, temp).with_stress(svtn, svtp)
    }

    /// The inputs a node sees with the stack idle at ambient — the
    /// calibration condition [`StackMonitor::calibrate_all`] uses, exposed
    /// so external sensing stacks (e.g. the DTM loop's DVS-mode sensors)
    /// can boot under identical conditions.
    ///
    /// # Panics
    ///
    /// Panics if `node_index` is out of range.
    #[must_use]
    pub fn calibration_inputs(&self, node_index: usize) -> SensorInputs<'_> {
        self.inputs_at(node_index, self.topology.thermal_config().ambient)
    }

    /// Calibrates every sensor with the stack idle at ambient.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors from any node.
    pub fn calibrate_all<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<(), SensorError> {
        let ambient = self.topology.thermal_config().ambient;
        let cfg = self.topology.thermal_config().clone();
        for i in 0..self.nodes.len() {
            let node = &self.nodes[i];
            let (x, y) = (
                Micron(node.site.x * cfg.die_width.0),
                Micron(node.site.y * cfg.die_height.0),
            );
            let (svtn, svtp) = self.topology.stress_vt_shift_at(node.tier, x, y, ambient);
            let inputs = SensorInputs::new(&self.dies[node.tier], node.site, ambient)
                .with_stress(svtn, svtp);
            let node = &mut self.nodes[i];
            node.sensor.calibrate(&inputs, rng)?;
        }
        Ok(())
    }

    /// Reads every tier against a solved thermal state.
    ///
    /// # Errors
    ///
    /// Propagates sensor read errors; thermal query failures are reported as
    /// [`SensorError::InvalidConfig`] (they indicate a topology mismatch).
    pub fn read_all<R: Rng + ?Sized>(
        &self,
        thermal: &ThermalStack,
        rng: &mut R,
    ) -> Result<Vec<TierReading>, SensorError> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let inputs = self
                .inputs_for(i, thermal)
                .map_err(|_| SensorError::InvalidConfig {
                    name: "thermal stack tier mismatch",
                    value: node.tier as f64,
                })?;
            let reading = node.sensor.read(&inputs, rng)?;
            let cal = node
                .sensor
                .calibration()
                .ok_or(SensorError::NotCalibrated)?;
            let vt_drift = (reading.d_vtn - cal.d_vtn(), reading.d_vtp - cal.d_vtp());
            out.push(TierReading {
                tier: node.tier,
                true_temp: inputs.temp,
                reading,
                true_stress_shift: (inputs.extra_vtn, inputs.extra_vtp),
                vt_drift,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_device::units::Watt;
    use ptsim_mc::model::VariationModel;
    use ptsim_rng::Pcg64;
    use ptsim_thermal::power::PowerMap;
    use ptsim_thermal::solve::{solve_steady_state, SolveOptions};

    fn monitor() -> StackMonitor {
        let topo = StackTopology::reference_four_tier();
        let model = VariationModel::new(&Technology::n65());
        let mut rng = Pcg64::seed_from_u64(1234);
        let dies: Vec<DieSample> = (0..4)
            .map(|i| model.sample_die_with_id(&mut rng, i))
            .collect();
        StackMonitor::new(
            topo,
            dies,
            DieSite::new(0.25, 0.25),
            &Technology::n65(),
            SensorSpec::default_65nm(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_wrong_die_count() {
        let topo = StackTopology::reference_four_tier();
        let err = StackMonitor::new(
            topo,
            vec![DieSample::nominal(); 2],
            DieSite::CENTER,
            &Technology::n65(),
            SensorSpec::default_65nm(),
        )
        .unwrap_err();
        assert!(matches!(err, SensorError::InvalidConfig { .. }));
    }

    #[test]
    fn end_to_end_stack_monitoring() {
        let mut mon = monitor();
        let mut rng = Pcg64::seed_from_u64(5);
        mon.calibrate_all(&mut rng).unwrap();

        // Heat the stack: 1.5 W hotspot on tier 0.
        let mut thermal = mon.build_thermal().unwrap();
        let mut p = PowerMap::zero(16, 16).unwrap();
        p.add_hotspot(0.25, 0.25, 0.1, Watt(1.5)).unwrap();
        thermal.set_power(0, p).unwrap();
        solve_steady_state(&mut thermal, &SolveOptions::default()).unwrap();

        let readings = mon.read_all(&thermal, &mut rng).unwrap();
        assert_eq!(readings.len(), 4);
        for r in &readings {
            assert!(
                r.temp_error().abs() < 2.0,
                "tier {} error {:.2} °C",
                r.tier,
                r.temp_error()
            );
            assert!(r.true_temp.0 > 25.0, "stack should have heated");
        }
        // Tier 0 (hotspot, far from sink) runs hottest.
        assert!(readings[0].true_temp.0 > readings[3].true_temp.0);
    }

    #[test]
    fn stress_shift_nonzero_near_tsvs() {
        let mon = monitor();
        let thermal = {
            let mut t = mon.build_thermal().unwrap();
            solve_steady_state(&mut t, &SolveOptions::default()).unwrap();
            t
        };
        let inputs = mon.inputs_for(0, &thermal).unwrap();
        // The 8×8 central TSV array superposes a small but nonzero shift
        // even 1.25 mm off-centre.
        assert!(inputs.extra_vtn.0 > 0.0);
        assert!(inputs.extra_vtp.0 < 0.0);
    }

    #[test]
    fn accessors_consistent() {
        let mon = monitor();
        assert_eq!(mon.nodes().len(), 4);
        assert_eq!(mon.dies().len(), 4);
        assert_eq!(mon.nodes()[2].tier, 2);
        assert!(mon.nodes()[0].sensor().calibration().is_none());
        assert_eq!(mon.topology().thermal_config().tiers, 4);
    }
}
