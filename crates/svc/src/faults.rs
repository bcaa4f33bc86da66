//! Deterministic seeded fault injection.
//!
//! A [`FaultPlan`] decides, at a handful of named *sites* inside the
//! service, whether this particular call should fail — by panicking, by
//! sleeping, or by returning an I/O error. The decision is a pure
//! function of `(seed, site, per-site call index)`, so a chaos run is
//! reproducible: same seed, same request sequence → same faults, and a
//! failing seed can be replayed under a debugger.
//!
//! The sites cover the paths the resilience tests care about:
//!
//! * [`FaultSite::Reload`] — registry (re)materialization of a graph;
//! * [`FaultSite::SnapshotSave`] / [`FaultSite::SnapshotLoad`] — the
//!   crash-safe snapshot writer and reader;
//! * [`FaultSite::SolverPhase`] — every engine's phase boundary, via the
//!   per-job [`Stop`](graft_core::Stop) callback in the solver options.
//!
//! A `max_faults` budget caps the total number of injected faults, so a
//! chaos test's tail runs clean and its final assertions (drain,
//! snapshot round-trip) are not themselves sabotaged. With no plan
//! configured nothing is injected and nothing is paid: the hot paths
//! hold an `Option<&FaultPlan>` that is `None`.

use graft_sim::{Clock, WallClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Places in the service where a [`FaultPlan`] may inject a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Registry graph (re)materialization (`LOAD`/`GEN`/cache-miss reload).
    Reload,
    /// Snapshot write path.
    SnapshotSave,
    /// Snapshot read path.
    SnapshotLoad,
    /// Solver phase boundary (via the solve's stop callback).
    SolverPhase,
}

impl FaultSite {
    const ALL: [FaultSite; 4] = [
        FaultSite::Reload,
        FaultSite::SnapshotSave,
        FaultSite::SnapshotLoad,
        FaultSite::SolverPhase,
    ];

    fn tag(self) -> u64 {
        match self {
            FaultSite::Reload => 0x5265_6c6f,       // "Relo"
            FaultSite::SnapshotSave => 0x5361_7665, // "Save"
            FaultSite::SnapshotLoad => 0x4c6f_6164, // "Load"
            FaultSite::SolverPhase => 0x5068_6173,  // "Phas"
        }
    }

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|s| *s == self)
            .expect("site in ALL")
    }

    /// Spec-file name, accepted by the `sites=` key of
    /// [`FaultPlan::from_spec`].
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Reload => "reload",
            FaultSite::SnapshotSave => "snapshot-save",
            FaultSite::SnapshotLoad => "snapshot-load",
            FaultSite::SolverPhase => "solver",
        }
    }

    fn parse(s: &str) -> Option<FaultSite> {
        Self::ALL.into_iter().find(|site| site.name() == s)
    }
}

/// What an injection does at the site that drew it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic (exercises the worker-pool firewall).
    Panic,
    /// Sleep for the given duration (exercises deadlines and drains).
    Delay(Duration),
    /// Return `std::io::Error` (exercises typed error propagation); at
    /// solver sites, where there is no `Result` channel, it panics.
    IoError,
}

/// A deterministic fault-injection plan. See the module docs.
pub struct FaultPlan {
    seed: u64,
    /// Injection probability per call, in percent (0–100).
    rate_pct: u64,
    /// Hard cap on the total number of faults this plan will ever inject.
    max_faults: u64,
    /// Which sites are armed.
    armed: [bool; FaultSite::ALL.len()],
    fired: AtomicU64,
    calls: [AtomicU64; FaultSite::ALL.len()],
    /// The clock injected `Delay` faults sleep on; wall by default, the
    /// simulation's virtual clock under `sim`.
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rate_pct", &self.rate_pct)
            .field("max_faults", &self.max_faults)
            .field("armed", &self.armed)
            .field("fired", &self.fired)
            .field("calls", &self.calls)
            .finish_non_exhaustive()
    }
}

/// splitmix64: the standard 64-bit avalanche mixer; every output bit
/// depends on every input bit, which is all we need for a fair per-call
/// coin that is still a pure function of its inputs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan injecting at all sites with the default 10% rate and a
    /// 64-fault budget.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rate_pct: 10,
            max_faults: 64,
            armed: [true; FaultSite::ALL.len()],
            fired: AtomicU64::new(0),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            clock: Arc::new(WallClock),
        }
    }

    /// Replaces the clock injected `Delay` faults are spent on. The
    /// simulation harness points this at its virtual clock so delays
    /// advance simulated time instead of stalling the test.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Parses the CLI/test spec format: comma-separated `key=value`
    /// pairs. Keys: `seed` (u64, required), `rate` (percent 0–100,
    /// default 10), `max` (fault budget, default 64), `sites`
    /// (`|`-separated subset of `reload`, `snapshot-save`,
    /// `snapshot-load`, `solver`; default all).
    ///
    /// Example: `seed=42,rate=25,max=16,sites=solver|reload`.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = None;
        let mut plan_rate = 10u64;
        let mut max = 64u64;
        let mut sites: Option<[bool; FaultSite::ALL.len()]> = None;
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{pair}` is not key=value"))?;
            match key {
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad fault seed `{value}`"))?,
                    )
                }
                "rate" => {
                    plan_rate = value
                        .parse::<u64>()
                        .ok()
                        .filter(|r| *r <= 100)
                        .ok_or_else(|| format!("bad fault rate `{value}` (want 0..=100)"))?
                }
                "max" => {
                    max = value
                        .parse::<u64>()
                        .map_err(|_| format!("bad fault budget `{value}`"))?
                }
                "sites" => {
                    let mut armed = [false; FaultSite::ALL.len()];
                    for name in value.split('|').filter(|s| !s.is_empty()) {
                        let site = FaultSite::parse(name)
                            .ok_or_else(|| format!("unknown fault site `{name}`"))?;
                        armed[site.index()] = true;
                    }
                    sites = Some(armed);
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        let seed = seed.ok_or("fault spec needs seed=<u64>")?;
        let mut plan = FaultPlan::new(seed);
        plan.rate_pct = plan_rate;
        plan.max_faults = max;
        if let Some(armed) = sites {
            plan.armed = armed;
        }
        Ok(plan)
    }

    /// The seed the plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Faults injected so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Draws the fault (if any) for the next call at `site`. Advances the
    /// site's call counter either way, so a sequence of `roll`s at one
    /// site is reproducible regardless of what other sites do.
    pub fn roll(&self, site: FaultSite) -> Option<Fault> {
        if !self.armed[site.index()] {
            return None;
        }
        let n = self.calls[site.index()].fetch_add(1, Ordering::Relaxed);
        let h = mix(self.seed ^ site.tag().rotate_left(32) ^ n);
        if h % 100 >= self.rate_pct {
            return None;
        }
        // Spend budget only on an actual hit; give up once exhausted so
        // the tail of a chaos run is clean.
        if self.fired.fetch_add(1, Ordering::Relaxed) >= self.max_faults {
            self.fired.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        let kind = (h / 100) % 3;
        Some(match kind {
            0 => Fault::Panic,
            1 => Fault::Delay(Duration::from_millis(1 + (h / 300) % 20)),
            _ => Fault::IoError,
        })
    }

    /// Rolls at an I/O-capable site and *executes* the drawn fault:
    /// panics, sleeps, or returns an injected `std::io::Error`.
    pub fn maybe_fail_io(&self, site: FaultSite) -> std::io::Result<()> {
        match self.roll(site) {
            None => Ok(()),
            Some(Fault::Panic) => panic!("injected fault: panic at {}", site.name()),
            Some(Fault::Delay(d)) => {
                self.clock.sleep(d);
                Ok(())
            }
            Some(Fault::IoError) => Err(std::io::Error::other(format!(
                "injected fault: i/o error at {}",
                site.name()
            ))),
        }
    }

    /// Executes the drawn fault at a site with no `Result` channel (the
    /// solver phase boundary): `IoError` degrades to a panic, which the
    /// worker-pool firewall turns into a typed `ERR internal`.
    pub fn maybe_fail_infallible(&self, site: FaultSite) {
        match self.roll(site) {
            None => {}
            Some(Fault::Delay(d)) => self.clock.sleep(d),
            Some(Fault::Panic) | Some(Fault::IoError) => {
                panic!("injected fault: panic at {}", site.name())
            }
        }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let armed: Vec<&str> = FaultSite::ALL
            .into_iter()
            .filter(|s| self.armed[s.index()])
            .map(|s| s.name())
            .collect();
        write!(
            f,
            "seed={} rate={}% max={} sites={}",
            self.seed,
            self.rate_pct,
            self.max_faults,
            armed.join("|")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rolls(plan: &FaultPlan, site: FaultSite, n: usize) -> Vec<Option<Fault>> {
        (0..n).map(|_| plan.roll(site)).collect()
    }

    #[test]
    fn same_seed_same_faults() {
        let a = FaultPlan::from_spec("seed=7,rate=50,max=1000").unwrap();
        let b = FaultPlan::from_spec("seed=7,rate=50,max=1000").unwrap();
        for site in FaultSite::ALL {
            assert_eq!(rolls(&a, site, 200), rolls(&b, site, 200), "{site:?}");
        }
        assert!(a.fired() > 0, "50% over 800 calls must fire");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::from_spec("seed=1,rate=50,max=1000").unwrap();
        let b = FaultPlan::from_spec("seed=2,rate=50,max=1000").unwrap();
        assert_ne!(
            rolls(&a, FaultSite::SolverPhase, 200),
            rolls(&b, FaultSite::SolverPhase, 200)
        );
    }

    #[test]
    fn rate_zero_never_fires_rate_hundred_always_fires() {
        let never = FaultPlan::from_spec("seed=3,rate=0").unwrap();
        assert!(rolls(&never, FaultSite::Reload, 500)
            .iter()
            .all(Option::is_none));

        let always = FaultPlan::from_spec("seed=3,rate=100,max=1000000").unwrap();
        assert!(rolls(&always, FaultSite::Reload, 500)
            .iter()
            .all(Option::is_some));
    }

    #[test]
    fn budget_caps_total_faults() {
        let plan = FaultPlan::from_spec("seed=9,rate=100,max=5").unwrap();
        let fired = rolls(&plan, FaultSite::SnapshotSave, 100)
            .iter()
            .filter(|f| f.is_some())
            .count();
        assert_eq!(fired, 5);
        assert_eq!(plan.fired(), 5);
    }

    #[test]
    fn disarmed_sites_stay_quiet() {
        let plan = FaultPlan::from_spec("seed=4,rate=100,sites=solver").unwrap();
        assert!(plan.roll(FaultSite::Reload).is_none());
        assert!(plan.roll(FaultSite::SnapshotSave).is_none());
        assert!(plan.roll(FaultSite::SolverPhase).is_some());
    }

    #[test]
    fn spec_errors_are_descriptive() {
        assert!(FaultPlan::from_spec("rate=10")
            .unwrap_err()
            .contains("seed"));
        assert!(FaultPlan::from_spec("seed=1,rate=101")
            .unwrap_err()
            .contains("rate"));
        assert!(FaultPlan::from_spec("seed=1,sites=warp-core")
            .unwrap_err()
            .contains("warp-core"));
        assert!(FaultPlan::from_spec("seed=1,bogus=2")
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn io_faults_become_errors_not_panics_at_io_sites() {
        let plan = FaultPlan::from_spec("seed=11,rate=100,max=100000").unwrap();
        let mut saw_err = false;
        let mut saw_panic = false;
        for _ in 0..200 {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.maybe_fail_io(FaultSite::SnapshotLoad)
            })) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    assert!(e.to_string().contains("injected"), "{e}");
                    saw_err = true;
                }
                Err(_) => saw_panic = true,
            }
        }
        assert!(saw_err && saw_panic, "err={saw_err} panic={saw_panic}");
    }
}
