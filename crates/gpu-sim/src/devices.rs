//! [`Devices`]: the placement a phase runs on — one [`Gpu`], or every
//! live device of a [`DeviceFleet`].
//!
//! Phase drivers are written once against this view. A single GPU is the
//! fleet of one: barriers and all-gathers are no-ops, the lead device is
//! the only device, and [`Devices::run_sharded`] hands it the whole work
//! range as one borrowed shard. Sharding therefore stays a pricing
//! concern — which device pays for which work item — and never a second
//! copy of a driver.
//!
//! **The death rule.** When a shard fails with a recoverable device error
//! (an injected OOM or launch fault), its device is marked dead *only
//! while another live device can take its shard*; the failed items are
//! then round-robined onto the survivors and re-run (work items are
//! idempotent, so the retry is safe). The last live device's failure is
//! returned as the phase error and that device stays alive, so the
//! caller's next ladder rung — a leaner numeric format, a fallback
//! symbolic engine — still has a device to run on. An injected crash is
//! always terminal. For [`Devices::One`] this is exactly single-device
//! error propagation.

use crate::clock::SimTime;
use crate::error::SimError;
use crate::fleet::DeviceFleet;
use crate::launch::Gpu;
use std::borrow::Cow;
use std::ops::Range;

/// Where a phase runs. See the module docs.
#[derive(Debug, Clone, Copy)]
pub enum Devices<'a> {
    /// One device.
    One(&'a Gpu),
    /// Every live device of a fleet.
    Fleet(&'a DeviceFleet),
}

/// One device's share of a [`Devices::run_sharded`] pass: a contiguous
/// range of the work items on the first pass, or the items picked for a
/// survivor on a reshard pass.
#[derive(Debug, Clone)]
pub enum Shard<'s> {
    /// A contiguous item range (first pass).
    Range(Range<usize>),
    /// Item indices re-run on a survivor (reshard pass).
    Picked(&'s [usize]),
}

impl Shard<'_> {
    /// The shard's elements of `items`: borrowed for a range, gathered
    /// for a reshard pick.
    pub fn select<'t, T: Clone>(&self, items: &'t [T]) -> Cow<'t, [T]> {
        match self {
            Shard::Range(r) => Cow::Borrowed(&items[r.clone()]),
            Shard::Picked(ix) => Cow::Owned(ix.iter().map(|&i| items[i].clone()).collect()),
        }
    }

    fn push_items(&self, out: &mut Vec<usize>) {
        match self {
            Shard::Range(r) => out.extend(r.clone()),
            Shard::Picked(ix) => out.extend_from_slice(ix),
        }
    }
}

impl<'a> Devices<'a> {
    /// Number of devices, dead ones included.
    pub fn len(&self) -> usize {
        match self {
            Devices::One(_) => 1,
            Devices::Fleet(f) => f.len(),
        }
    }

    /// Always false: a placement holds at least one device.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True for a fleet placement (even a fleet of one).
    pub fn is_fleet(&self) -> bool {
        matches!(self, Devices::Fleet(_))
    }

    /// The device at ordinal `d`.
    pub fn device(&self, d: usize) -> &'a Gpu {
        match self {
            Devices::One(gpu) => gpu,
            Devices::Fleet(f) => f.device(d),
        }
    }

    /// Whether device `d` is alive.
    pub fn is_alive(&self, d: usize) -> bool {
        match self {
            Devices::One(_) => true,
            Devices::Fleet(f) => !f.is_dead(d),
        }
    }

    /// Ordinals of live devices, ascending.
    pub fn alive(&self) -> impl Iterator<Item = usize> + 'a {
        let this = *self;
        (0..this.len()).filter(move |&d| this.is_alive(d))
    }

    /// Number of live devices.
    pub fn n_alive(&self) -> usize {
        self.alive().count()
    }

    /// The first live device: the one that runs unsharded phases
    /// (levelization, block detection) and whose statistics stand in for
    /// "the GPU" in single-device report fields.
    pub fn lead(&self) -> &'a Gpu {
        self.device(self.alive().next().unwrap_or(0))
    }

    /// Phase clock: the device's clock, or the fleet makespan.
    pub fn now(&self) -> SimTime {
        match self {
            Devices::One(gpu) => gpu.now(),
            Devices::Fleet(f) => f.makespan(),
        }
    }

    /// Advances every live clock by `t` — host-side work (ordering, pivot
    /// discovery, pattern expansion) blocks every device equally.
    pub fn advance_all(&self, t: SimTime) {
        for d in self.alive() {
            self.device(d).advance(t);
        }
    }

    /// Advances every live clock to the latest one (no-op on one device).
    pub fn barrier(&self) {
        if let Devices::Fleet(f) = self {
            f.barrier();
        }
    }

    /// Prices a level-barrier all-gather of `bytes[d]` from every live
    /// device `d` (see [`DeviceFleet::all_gather`]); nothing moves on one
    /// device.
    pub fn all_gather(&self, bytes: &[u64]) {
        if let Devices::Fleet(f) = self {
            f.all_gather(bytes);
        }
    }

    /// Frees every live device's allocations (between ladder rungs).
    pub fn reset_mem(&self) {
        for d in self.alive() {
            self.device(d).mem.reset();
        }
    }

    /// Applies the death rule to device `d` after a recoverable failure:
    /// marks it dead and returns `true` only while another live device
    /// can take its work.
    pub fn retire(&self, d: usize) -> bool {
        match self {
            Devices::Fleet(f) if f.n_alive() > 1 && !f.is_dead(d) => f.mark_dead(d),
            _ => false,
        }
    }

    /// The one shard-and-reshard loop: live device number `slot` of `k`
    /// first runs the item range `chunk(slot, k)` (empty ranges are
    /// skipped) as `run(d, shard)`; failures follow the death rule (module
    /// docs) until every item has run or the last live device's error is
    /// returned.
    pub fn run_sharded(
        &self,
        chunk: impl Fn(usize, usize) -> Range<usize>,
        mut run: impl FnMut(usize, Shard<'_>) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let k = self.n_alive();
        if k == 0 {
            return Err(SimError::BadLaunch("no live devices in fleet".into()));
        }
        let mut failed: Vec<usize> = Vec::new();
        // A device can only die on its own turn, so walking the live
        // ordinals lazily assigns the same slots as a snapshot would.
        for (slot, d) in self.alive().enumerate() {
            let range = chunk(slot, k);
            if !range.is_empty() {
                self.attempt(d, Shard::Range(range), &mut run, &mut failed)?;
            }
        }
        while !failed.is_empty() {
            let survivors: Vec<usize> = self.alive().collect();
            let mut picks: Vec<Vec<usize>> = vec![Vec::new(); survivors.len()];
            for (i, item) in failed.drain(..).enumerate() {
                picks[i % survivors.len()].push(item);
            }
            for (&d, items) in survivors.iter().zip(&picks) {
                if !items.is_empty() {
                    self.attempt(d, Shard::Picked(items), &mut run, &mut failed)?;
                }
            }
        }
        Ok(())
    }

    fn attempt(
        &self,
        d: usize,
        shard: Shard<'_>,
        run: &mut impl FnMut(usize, Shard<'_>) -> Result<(), SimError>,
        failed: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        match run(d, shard.clone()) {
            Ok(()) => Ok(()),
            Err(e) if matches!(e, SimError::Crashed { .. }) || !self.retire(d) => Err(e),
            Err(_) => {
                // Counted as they leave the retired device: a later
                // survivor failure may end the phase before they re-run,
                // and the caller's next rung then re-runs them instead.
                let moved = failed.len();
                shard.push_items(failed);
                if let Devices::Fleet(f) = self {
                    f.note_resharded(failed.len() - moved);
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::cost::CostModel;
    use crate::fault::FaultPlan;
    use crate::fleet::split_even;

    fn shard_items(shard: &Shard<'_>) -> Vec<usize> {
        let mut v = Vec::new();
        shard.push_items(&mut v);
        v
    }

    #[test]
    fn one_device_gets_the_whole_range_as_one_borrowed_shard() {
        let gpu = Gpu::new(GpuConfig::v100());
        let one = Devices::One(&gpu);
        let mut seen = Vec::new();
        one.run_sharded(
            |slot, k| split_even(10, k)[slot].clone(),
            |d, shard| {
                assert!(matches!(shard, Shard::Range(_)));
                seen.push((d, shard_items(&shard)));
                Ok(())
            },
        )
        .expect("runs");
        assert_eq!(seen, vec![(0, (0..10).collect::<Vec<_>>())]);
        let items = [7u32, 8, 9];
        assert!(matches!(
            Shard::Range(1..3).select(&items),
            Cow::Borrowed(&[8, 9])
        ));
    }

    #[test]
    fn failures_reshard_onto_survivors_and_the_last_device_keeps_the_error() {
        let fleet = DeviceFleet::new(3, GpuConfig::v100());
        let devices = Devices::Fleet(&fleet);
        let mut ran = vec![Vec::new(); 3];
        devices
            .run_sharded(
                |slot, k| split_even(9, k)[slot].clone(),
                |d, shard| {
                    if d == 1 {
                        return Err(SimError::BadLaunch("injected".into()));
                    }
                    ran[d].extend(shard_items(&shard));
                    Ok(())
                },
            )
            .expect("survivors absorb device 1");
        assert_eq!(fleet.alive(), vec![0, 2]);
        assert_eq!(ran[0], vec![0, 1, 2, 3, 5]);
        assert_eq!(ran[2], vec![6, 7, 8, 4]);
        assert_eq!(fleet.resharded(), 3);

        // Every device fails: all but the last die, and the last one's
        // error is the phase error.
        let err = devices
            .run_sharded(
                |slot, k| split_even(4, k)[slot].clone(),
                |_, _| Err(SimError::BadLaunch("down".into())),
            )
            .expect_err("no survivor left");
        assert_eq!(err, SimError::BadLaunch("down".into()));
        assert_eq!(fleet.n_alive(), 1, "the last device stays alive");
        assert!(!devices.retire(fleet.alive()[0]));
    }

    #[test]
    fn crashes_are_terminal_even_with_survivors() {
        let fleet = DeviceFleet::new(2, GpuConfig::v100());
        let err = Devices::Fleet(&fleet)
            .run_sharded(
                |slot, k| split_even(4, k)[slot].clone(),
                |_, _| Err(SimError::Crashed { ordinal: 1 }),
            )
            .expect_err("crash");
        assert!(matches!(err, SimError::Crashed { .. }));
        assert_eq!(fleet.n_alive(), 2);
    }

    #[test]
    fn one_device_never_dies() {
        let plan = FaultPlan::parse("oom:alloc=1").expect("plan");
        let gpu = Gpu::with_fault_plan(GpuConfig::v100(), CostModel::default(), plan);
        let one = Devices::One(&gpu);
        let err = one
            .run_sharded(|_, _| 0..1, |d, _| one.device(d).mem.alloc(8).map(drop))
            .expect_err("the only device's failure is the phase error");
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        assert_eq!(one.n_alive(), 1);
        assert!(!one.retire(0));
    }
}
