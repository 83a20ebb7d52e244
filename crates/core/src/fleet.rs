//! Multi-device entry points: [`LuFactorization::compute_fleet`] runs the
//! one pipeline on a [`Devices::Fleet`] placement, and [`FleetLedger`]
//! assembles the [`FleetReport`].
//!
//! There is no fleet copy of the pipeline: the same escalation ladder,
//! stages and residual gate take device placement as a parameter. Only
//! the symbolic stage looks at the variant (row-sharded fill counting);
//! levelization runs on the lead device, and the one level driver shards
//! each level by column with a priced all-gather at its barrier. Sharding
//! changes pricing, never values, so the factors are bit-identical to
//! one device's for every engine and device count.
//!
//! Under the death rule of [`gplu_sim::devices`] a failing device retires
//! only while a survivor can take its shard (logged as
//! [`crate::RecoveryAction::DeviceLost`]); the last live device's failure
//! is the phase error, so the single-device ladders apply unchanged.
//! Fleet runs are cold: checkpoint/resume and warm plan replay remain
//! single-device features.

use crate::error::GpluError;
use crate::pipeline::{LuFactorization, LuOptions};
use crate::recovery::Phase;
use crate::report::FleetReport;
use gplu_sim::{DeviceFleet, Devices, GpuStatsSnapshot, InterconnectStats};
use gplu_trace::{TraceSink, NOOP};

impl LuFactorization {
    /// Runs the full pipeline across `fleet`. See the module docs for the
    /// sharding discipline; the result is bit-identical to
    /// [`LuFactorization::compute`] on one device with the same options.
    ///
    /// [`crate::PhaseReport::fleet`] carries the per-device accounting
    /// (busy times, deaths, interconnect traffic).
    pub fn compute_fleet(
        fleet: &DeviceFleet,
        a: &gplu_sparse::Csr,
        opts: &LuOptions,
    ) -> Result<Self, GpluError> {
        Self::compute_fleet_traced(fleet, a, opts, &NOOP)
    }

    /// [`LuFactorization::compute_fleet`] with telemetry: the same
    /// `phase.*` spans as the single-device pipeline, with a `devices`
    /// attribute on the sharded phases and the per-level numeric spans.
    pub fn compute_fleet_traced(
        fleet: &DeviceFleet,
        a: &gplu_sparse::Csr,
        opts: &LuOptions,
        trace: &dyn TraceSink,
    ) -> Result<Self, GpluError> {
        Self::compute_inner(Devices::Fleet(fleet), a, opts, None, trace)
    }
}

/// Fleet accounting of one pipeline pass: per-device busy time,
/// interconnect traffic, and the devices lost (with the work resharded
/// onto survivors) since the pass began.
pub(crate) struct FleetLedger<'a> {
    fleet: &'a DeviceFleet,
    before: Vec<GpuStatsSnapshot>,
    ic_before: InterconnectStats,
    dead: Vec<bool>,
    lost: Vec<usize>,
    resharded_mark: usize,
    resharded_rows: usize,
    resharded_cols: usize,
}

impl<'a> FleetLedger<'a> {
    /// Opens the ledger for a pass on `devices`; `None` on one device.
    pub(crate) fn open(devices: Devices<'a>) -> Option<Self> {
        let Devices::Fleet(fleet) = devices else {
            return None;
        };
        Some(FleetLedger {
            fleet,
            before: fleet.devices().iter().map(|g| g.stats()).collect(),
            ic_before: fleet.stats().interconnect,
            dead: (0..fleet.len()).map(|d| fleet.is_dead(d)).collect(),
            lost: Vec::new(),
            resharded_mark: fleet.resharded(),
            resharded_rows: 0,
            resharded_cols: 0,
        })
    }

    /// Devices that died since the last call, each paired with the work
    /// units of `phase` resharded onto survivors in the meantime.
    pub(crate) fn losses(&mut self, phase: Phase) -> Vec<(usize, usize)> {
        let resharded = self.fleet.resharded() - self.resharded_mark;
        self.resharded_mark += resharded;
        match phase {
            Phase::Symbolic => self.resharded_rows += resharded,
            _ => self.resharded_cols += resharded,
        }
        let mut lost = Vec::new();
        for device in 0..self.fleet.len() {
            if self.fleet.is_dead(device) && !self.dead[device] {
                self.dead[device] = true;
                self.lost.push(device);
                lost.push((device, resharded));
            }
        }
        lost
    }

    /// The pass's [`FleetReport`].
    pub(crate) fn report(mut self) -> FleetReport {
        let ic = self.fleet.stats().interconnect;
        self.lost.sort_unstable();
        FleetReport {
            devices: self.fleet.len(),
            dead: self.lost,
            per_device_ns: (self.fleet.devices().iter().zip(&self.before))
                .map(|(g, b)| g.stats().since(b).now.as_ns())
                .collect(),
            resharded_rows: self.resharded_rows,
            resharded_cols: self.resharded_cols,
            exchanges: ic.exchanges - self.ic_before.exchanges,
            exchange_bytes: ic.bytes - self.ic_before.bytes,
            exchange_ns: (ic.time - self.ic_before.time).as_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryAction;
    use crate::telemetry::RunReport;
    use gplu_sim::{FaultPlan, Gpu, GpuConfig};
    use gplu_sparse::gen::random::random_dominant;
    use gplu_trace::{JsonValue, Recorder};

    fn bits_equal(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn fleet_run_is_bit_identical_and_reports_the_fleet_section() {
        let a = random_dominant(150, 4.0, 5);
        let opts = LuOptions::default();
        let single =
            LuFactorization::compute(&Gpu::new(GpuConfig::v100()), &a, &opts).expect("single");
        let fleet = DeviceFleet::new(4, GpuConfig::v100());
        let f = LuFactorization::compute_fleet(&fleet, &a, &opts).expect("fleet");
        assert!(bits_equal(&single.lu.vals, &f.lu.vals));
        let fr = f.report.fleet.as_ref().expect("fleet report");
        assert_eq!(fr.devices, 4);
        assert!(fr.dead.is_empty());
        assert!(fr.exchanges > 0, "level barriers price the exchange");
        assert_eq!(fr.per_device_ns.len(), 4);
        assert!(fr.per_device_ns.iter().all(|&ns| ns > 0.0));
        // A single-device run has no fleet section at all.
        assert!(single.report.fleet.is_none());
    }

    #[test]
    fn traced_fleet_run_feeds_the_run_report_fleet_json() {
        let a = random_dominant(120, 4.0, 9);
        let fleet = DeviceFleet::new(2, GpuConfig::v100());
        let rec = Recorder::new();
        let f = LuFactorization::compute_fleet_traced(&fleet, &a, &LuOptions::default(), &rec)
            .expect("fleet");
        let events = rec.into_events();
        assert!(
            events
                .iter()
                .any(|e| e.attrs.iter().any(|(k, _)| *k == "devices")),
            "fleet spans must carry the device-count attribute"
        );
        let json = RunReport::new(a.n_rows(), a.nnz(), f.report.clone(), &events).to_json();
        let fl = json.get("fleet").expect("fleet section in the run report");
        assert_eq!(fl.get("devices").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            fl.get("per_device_ns")
                .and_then(JsonValue::as_arr)
                .map(<[JsonValue]>::len),
            Some(2)
        );
    }

    #[test]
    fn dead_device_lands_in_the_recovery_log() {
        let a = random_dominant(200, 4.0, 7);
        let plans = FaultPlan::parse_fleet("dev=1:oom:alloc=1:persistent", 4).expect("plans");
        let fleet = DeviceFleet::with_fault_plans(
            4,
            GpuConfig::v100(),
            gplu_sim::CostModel::default(),
            &plans,
        );
        let f = LuFactorization::compute_fleet(&fleet, &a, &LuOptions::default())
            .expect("survivors absorb the shard");
        let fr = f.report.fleet.as_ref().expect("fleet report");
        assert_eq!(fr.dead, vec![1]);
        assert!(f.report.recovery.events().iter().any(|e| matches!(
            e.action,
            RecoveryAction::DeviceLost { device: 1, resharded } if resharded > 0
        )));
    }
}
