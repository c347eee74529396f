//! Dynamic-workload configuration: UE churn, tidal offered load, BS
//! failure events, and service-class mixes.
//!
//! Every feature here is a *pure function of (config, base seed, UE id,
//! step)* — churn windows, tidal intensities, failure timelines and
//! class draws are all recomputable from the configuration at any
//! point, so nothing in this module adds state to the (frozen)
//! checkpoint format and a resumed run reconstructs the exact dynamic
//! workload of the uninterrupted one. Randomized draws run on their own
//! domain-separated streams ([`CHURN_STREAM`], [`SERVICE_STREAM`]) so
//! enabling a feature never perturbs the measurement, trajectory or
//! traffic streams: the differential suite (`tests/dynamic_diff.rs`)
//! pins that every feature switched off yields bit-identical fleet
//! output.

use crate::fleet::ue_seed;
use crate::traffic::exp_sample;
use cellgeom::Axial;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Domain-separation mask for the churn stream: per-UE arrival and
/// lifetime draws run on `ue_seed(base_seed ^ CHURN_STREAM, ue_id)` so
/// churn never perturbs the measurement, trajectory, or traffic
/// streams (ASCII `"churn!!!"`).
pub const CHURN_STREAM: u64 = 0x6368_7572_6E21_2121;

/// Domain-separation mask for the service-class stream: per-UE class
/// draws mix `ue_seed(base_seed ^ SERVICE_STREAM, ue_id)` (ASCII
/// `"service!"`), so a single-class mix leaves the session draws of the
/// base traffic plane untouched.
pub const SERVICE_STREAM: u64 = 0x7365_7276_6963_6521;

/// SplitMix64 finalizer: one avalanche round turning a stream seed into
/// an unbiased 64-bit draw (the same construction the scenario matrix
/// uses for its cell seeds).
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// UE churn: a birth–death population process. The run's id universe
/// splits into an initial population (present from step 0, exponential
/// *residual* lifetimes — the memoryless stationary view) and churned
/// arrivals whose start times fall uniformly over the horizon (the
/// conditional-uniform property of a Poisson arrival process: `k`
/// arrivals in `[0, T)` are i.i.d. uniform given `k`). With
/// `initial_ues = arrival_rate × mean_lifetime` the expected concurrent
/// population is stationary at that value for the whole horizon, which
/// the statistical suite (`tests/dynamic_stats.rs`) checks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Ids below this bound are present at step 0; the rest churn in.
    /// The implied arrival rate is `(n_ids − initial_ues) /
    /// horizon_steps`.
    pub initial_ues: u64,
    /// Arrival window length in steps. Arrivals land uniformly in
    /// `[0, horizon_steps)`.
    pub horizon_steps: u64,
    /// Mean exponential lifetime, in steps. A UE departs after its
    /// lifetime elapses (or when its trajectory ends, whichever is
    /// first).
    pub mean_lifetime_steps: f64,
}

impl ChurnConfig {
    /// Validate the configuration: a non-empty arrival window and a
    /// finite positive mean lifetime.
    pub fn validated(&self) -> Result<(), crate::resilience::ConfigError> {
        use crate::resilience::{require_positive, ConfigError};
        if self.horizon_steps < 1 {
            return Err(ConfigError::TooSmall {
                field: "churn horizon (steps)",
                minimum: 1,
                got: self.horizon_steps,
            });
        }
        require_positive("mean lifetime", self.mean_lifetime_steps)?;
        Ok(())
    }

    /// The presence window of one UE: `(arrival_step, lifetime_steps)`.
    /// A pure function of `(self, base_seed, ue_id)` on the
    /// [`CHURN_STREAM`] — the fleet engine and a resumed checkpoint
    /// recompute identical windows. Lifetimes round up to at least one
    /// step.
    pub fn window(&self, base_seed: u64, ue_id: u64) -> (u64, u64) {
        let mut rng = StdRng::seed_from_u64(ue_seed(base_seed ^ CHURN_STREAM, ue_id));
        // Draw order is fixed (arrival, then lifetime) for every UE so
        // the two margins stay decoupled from the id split.
        let u: f64 = rng.gen();
        let arrival = if ue_id < self.initial_ues {
            0
        } else {
            ((u * self.horizon_steps as f64) as u64).min(self.horizon_steps - 1)
        };
        let lifetime = (exp_sample(&mut rng, self.mean_lifetime_steps).ceil() as u64).max(1);
        (arrival, lifetime)
    }

    /// Compact label, e.g. `churn100i-h500-l80`.
    pub fn label(&self) -> String {
        format!(
            "churn{}i-h{}-l{:.0}",
            self.initial_ues, self.horizon_steps, self.mean_lifetime_steps
        )
    }
}

/// Tidal offered load: a sinusoidal commute wave sweeping across the
/// layout's `q` axis. The wave multiplies the *arrival rate* of new
/// call sessions (and scales their holding mean) as a pure function of
/// `(step, cell.q)`:
///
/// ```text
/// intensity(step, q) = 1 + amplitude · sin(2π(step/period − q·phase_per_q))
/// ```
///
/// so offered load migrates from cell column to cell column over the
/// period — the "hotspot moves downtown in the morning" shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TidalWave {
    /// Wave period in steps (one commute cycle).
    pub period_steps: u64,
    /// Relative swing in `[0, 1]`: 0 is flat (no tide), 1 swings
    /// between 0× and 2× the base rate.
    pub amplitude: f64,
    /// Phase shift per unit of the cell's axial `q` coordinate, in
    /// turns — nonzero values make the wave *travel* across columns.
    pub phase_per_q: f64,
}

impl TidalWave {
    /// Validate the configuration: a period of at least one step, an
    /// amplitude in `[0, 1]` and a finite phase shift.
    pub fn validated(&self) -> Result<(), crate::resilience::ConfigError> {
        use crate::resilience::{require_finite, require_in_range, ConfigError};
        if self.period_steps < 1 {
            return Err(ConfigError::TooSmall {
                field: "tidal period (steps)",
                minimum: 1,
                got: self.period_steps,
            });
        }
        require_in_range("tidal amplitude", self.amplitude, 0.0, 1.0)?;
        require_finite("phase shift", self.phase_per_q)?;
        Ok(())
    }

    /// True for a zero-amplitude (inert) wave.
    pub fn is_flat(&self) -> bool {
        self.amplitude == 0.0
    }

    /// The rate multiplier at `step` for a cell in column `q`; always in
    /// `[1 − amplitude, 1 + amplitude]`.
    pub fn intensity(&self, step: u64, q: i32) -> f64 {
        let turns = step as f64 / self.period_steps as f64 - q as f64 * self.phase_per_q;
        1.0 + self.amplitude * (std::f64::consts::TAU * turns).sin()
    }

    /// Compact label, e.g. `tide0.40p96`.
    pub fn label(&self) -> String {
        format!("tide{:.2}p{}", self.amplitude, self.period_steps)
    }
}

/// One scheduled base-station outage: the cell is down (energy-saving
/// sleep or failure) for `from_step ≤ step < until_step`. While down,
/// the cell admits no calls, leaves the handover candidate set, and its
/// serving UEs are force-evicted through the regular handover path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellOutage {
    /// The failing cell.
    pub cell: Axial,
    /// First step the cell is down (inclusive).
    pub from_step: u64,
    /// First step the cell is back up (exclusive bound).
    pub until_step: u64,
}

impl CellOutage {
    /// Validate the outage window: `from_step < until_step`.
    pub fn validated(&self) -> Result<(), crate::resilience::ConfigError> {
        if self.from_step >= self.until_step {
            return Err(crate::resilience::ConfigError::InvertedWindow {
                field: "outage",
                from: self.from_step,
                until: self.until_step,
            });
        }
        Ok(())
    }

    /// True while the cell is down at `step`.
    pub fn is_down_at(&self, step: u64) -> bool {
        (self.from_step..self.until_step).contains(&step)
    }
}

/// Per-class session parameters of a [`ServiceMix`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceParams {
    /// Mean exponential idle time between this class's calls, in steps.
    pub mean_idle_steps: f64,
    /// Mean exponential call-holding time, in steps.
    pub mean_holding_steps: f64,
    /// Extra guard channels this class's *new* calls must leave free on
    /// top of the traffic plane's handover guard — the admission
    /// priority knob (0 for the privileged class, > 0 deprioritizes).
    pub extra_guard_channels: u32,
}

impl ServiceParams {
    /// Validate the parameters: finite positive idle and holding means.
    pub fn validated(&self) -> Result<(), crate::resilience::ConfigError> {
        use crate::resilience::require_positive;
        require_positive("mean idle time", self.mean_idle_steps)?;
        require_positive("mean holding time", self.mean_holding_steps)?;
        Ok(())
    }
}

/// A two-class voice/data service mix. Each UE is assigned a class once
/// per run on the [`SERVICE_STREAM`]; its sessions then use that
/// class's idle/holding means, and admission charges the class's extra
/// guard channels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceMix {
    /// Fraction of UEs assigned [`handover_core::ServiceClass::Voice`],
    /// in `[0, 1]`.
    pub voice_share: f64,
    /// Voice-class session parameters.
    pub voice: ServiceParams,
    /// Data-class session parameters.
    pub data: ServiceParams,
}

impl ServiceMix {
    /// Validate the mix: a voice share in `[0, 1]` and valid per-class
    /// parameters.
    pub fn validated(&self) -> Result<(), crate::resilience::ConfigError> {
        crate::resilience::require_in_range("voice share", self.voice_share, 0.0, 1.0)?;
        self.voice.validated()?;
        self.data.validated()?;
        Ok(())
    }

    /// The class of one UE: a pure function of `(self, base_seed,
    /// ue_id)` on the [`SERVICE_STREAM`].
    pub fn class_of(&self, base_seed: u64, ue_id: u64) -> handover_core::ServiceClass {
        let z = splitmix(ue_seed(base_seed ^ SERVICE_STREAM, ue_id));
        // Top 53 bits → uniform in [0, 1).
        let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < self.voice_share {
            handover_core::ServiceClass::Voice
        } else {
            handover_core::ServiceClass::Data
        }
    }

    /// Compact label, e.g. `svc0.70v`.
    pub fn label(&self) -> String {
        format!("svc{:.2}v", self.voice_share)
    }
}

/// The dynamic-workload plane configuration: any combination of UE
/// churn, tidal offered load, scheduled cell outages, and a
/// service-class mix. Every field defaults to "off"; an entirely inert
/// configuration normalizes to `None` (see
/// [`DynamicsConfig::normalized`]), so the fleet engine's byte-pinned
/// static path never even sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicsConfig {
    /// UE churn (`None`: the population is static).
    pub churn: Option<ChurnConfig>,
    /// Tidal offered-load wave (`None`: time-invariant offered load).
    pub tide: Option<TidalWave>,
    /// Scheduled cell outages (empty: every cell stays up).
    pub failures: Vec<CellOutage>,
    /// Service-class mix (`None`: one undifferentiated class).
    pub services: Option<ServiceMix>,
}

impl DynamicsConfig {
    /// A fully-off configuration (normalizes to `None`).
    pub fn none() -> Self {
        DynamicsConfig { churn: None, tide: None, failures: Vec::new(), services: None }
    }

    /// Validate every configured feature, returning the first defect.
    /// Outage cells are checked against a layout by
    /// [`validate_planes`](crate::resilience::validate_planes).
    pub fn validated(&self) -> Result<(), crate::resilience::ConfigError> {
        if let Some(churn) = &self.churn {
            churn.validated()?;
        }
        if let Some(tide) = &self.tide {
            tide.validated()?;
        }
        for outage in &self.failures {
            outage.validated()?;
        }
        if let Some(services) = &self.services {
            services.validated()?;
        }
        Ok(())
    }

    /// Every outage as `(index of its cell in cells, from_step,
    /// until_step)`, or [`ConfigError::UnknownCell`] for the first
    /// outage whose cell is not in `cells`.
    ///
    /// [`ConfigError::UnknownCell`]: crate::resilience::ConfigError::UnknownCell
    pub(crate) fn outage_indices(
        &self,
        cells: &[Axial],
    ) -> Result<Vec<(usize, u64, u64)>, crate::resilience::ConfigError> {
        self.failures
            .iter()
            .map(|o| match cells.iter().position(|&c| c == o.cell) {
                Some(idx) => Ok((idx, o.from_step, o.until_step)),
                None => Err(crate::resilience::ConfigError::UnknownCell {
                    what: "outage",
                    cell: o.cell,
                }),
            })
            .collect()
    }

    /// Normalize: drop a valid zero-amplitude tide, then return `None`
    /// if nothing remains switched on. The fleet builder routes inert
    /// configurations back onto the exact static code path, which is
    /// what makes "feature off ⇒ bit-identical" trivially true. An
    /// invalid tide is kept, so validation still rejects it.
    pub fn normalized(mut self) -> Option<Self> {
        if self
            .tide
            .is_some_and(|t| t.is_flat() && t.validated().is_ok())
        {
            self.tide = None;
        }
        if self.churn.is_none()
            && self.tide.is_none()
            && self.failures.is_empty()
            && self.services.is_none()
        {
            None
        } else {
            Some(self)
        }
    }

    /// Compact label for matrix axes, e.g.
    /// `churn100i-h500-l80+tide0.40p96+fail2+svc0.70v`.
    pub fn label(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(churn) = &self.churn {
            parts.push(churn.label());
        }
        if let Some(tide) = &self.tide {
            parts.push(tide.label());
        }
        if !self.failures.is_empty() {
            parts.push(format!("fail{}", self.failures.len()));
        }
        if let Some(services) = &self.services {
            parts.push(services.label());
        }
        if parts.is_empty() {
            "dyn-off".to_string()
        } else {
            parts.join("+")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use handover_core::ServiceClass;

    fn churn() -> ChurnConfig {
        ChurnConfig { initial_ues: 10, horizon_steps: 100, mean_lifetime_steps: 25.0 }
    }

    #[test]
    fn churn_windows_are_deterministic_and_in_range() {
        let c = churn();
        assert_eq!(c.validated(), Ok(()));
        for id in 0..200 {
            let (a1, l1) = c.window(0xABCD, id);
            let (a2, l2) = c.window(0xABCD, id);
            assert_eq!((a1, l1), (a2, l2), "ue {id}");
            assert!(l1 >= 1);
            if id < c.initial_ues {
                assert_eq!(a1, 0, "initial population present at step 0");
            } else {
                assert!(a1 < c.horizon_steps, "arrival inside the horizon");
            }
        }
        // Different seeds, different windows (overwhelmingly).
        let differs = (10..110)
            .filter(|&id| c.window(1, id) != c.window(2, id))
            .count();
        assert!(differs > 90, "{differs}");
    }

    #[test]
    fn churn_arrivals_spread_over_the_horizon() {
        let c = churn();
        // Mean of uniform [0, 100) arrivals ≈ 50.
        let n = 2000u64;
        let sum: u64 = (c.initial_ues..c.initial_ues + n)
            .map(|id| c.window(7, id).0)
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 49.5).abs() < 3.0, "{mean}");
    }

    #[test]
    fn churn_stream_is_domain_separated() {
        // Same (seed, id) on churn vs. traffic streams: unrelated draws.
        let base = 0x5EED;
        let a = ue_seed(base ^ CHURN_STREAM, 3);
        let b = ue_seed(base ^ crate::traffic::TRAFFIC_STREAM, 3);
        let c = ue_seed(base, 3);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tide_intensity_wave_shape() {
        let t = TidalWave { period_steps: 100, amplitude: 0.5, phase_per_q: 0.25 };
        assert_eq!(t.validated(), Ok(()));
        // Peak at a quarter period (sin = 1), trough at three quarters.
        assert!((t.intensity(25, 0) - 1.5).abs() < 1e-9);
        assert!((t.intensity(75, 0) - 0.5).abs() < 1e-9);
        // Period-repeating.
        assert!((t.intensity(10, 0) - t.intensity(110, 0)).abs() < 1e-9);
        // One q unit shifts the wave by a quarter turn here.
        assert!((t.intensity(50, 1) - t.intensity(25, 0)).abs() < 1e-9);
        // Bounds.
        for s in 0..200 {
            let i = t.intensity(s, -2);
            assert!((0.5..=1.5).contains(&i), "{i}");
        }
        assert!(TidalWave { period_steps: 10, amplitude: 0.0, phase_per_q: 0.0 }.is_flat());
        assert!(!t.is_flat());
    }

    #[test]
    fn outage_window_membership() {
        let o = CellOutage { cell: Axial::ORIGIN, from_step: 10, until_step: 20 };
        assert_eq!(o.validated(), Ok(()));
        assert!(!o.is_down_at(9));
        assert!(o.is_down_at(10));
        assert!(o.is_down_at(19));
        assert!(!o.is_down_at(20));
    }

    #[test]
    fn empty_outage_window_rejected() {
        use crate::resilience::ConfigError;
        use crate::traffic::{replay_traffic_dynamic, TrafficConfig, UeTrace};
        let outage = CellOutage { cell: Axial::ORIGIN, from_step: 5, until_step: 5 };
        let inverted = ConfigError::InvertedWindow { field: "outage", from: 5, until: 5 };
        assert_eq!(outage.validated(), Err(inverted.clone()));
        assert!(inverted.to_string().contains("non-empty"), "{inverted}");
        let dynamics = DynamicsConfig { failures: vec![outage], ..DynamicsConfig::none() };
        let traffic = TrafficConfig::erlang(4, 0, 0.1, 10.0);
        let traces = [UeTrace::pinned(0, 10, 0)];
        let err = replay_traffic_dynamic(&traffic, &[Axial::ORIGIN], &traces, 1, &dynamics);
        assert_eq!(err.unwrap_err(), inverted);
    }

    #[test]
    fn service_class_draw_matches_share_and_is_deterministic() {
        let mix = ServiceMix {
            voice_share: 0.7,
            voice: ServiceParams {
                mean_idle_steps: 10.0,
                mean_holding_steps: 3.0,
                extra_guard_channels: 0,
            },
            data: ServiceParams {
                mean_idle_steps: 20.0,
                mean_holding_steps: 12.0,
                extra_guard_channels: 1,
            },
        };
        assert_eq!(mix.validated(), Ok(()));
        let n = 5000u64;
        let voice = (0..n)
            .filter(|&id| mix.class_of(0xF00D, id) == ServiceClass::Voice)
            .count() as f64;
        let share = voice / n as f64;
        assert!((share - 0.7).abs() < 0.03, "{share}");
        assert_eq!(mix.class_of(1, 9), mix.class_of(1, 9));
        // Degenerate shares are exact.
        let mut all_voice = mix;
        all_voice.voice_share = 1.0;
        assert!((0..500).all(|id| all_voice.class_of(3, id) == ServiceClass::Voice));
        let mut all_data = mix;
        all_data.voice_share = 0.0;
        assert!((0..500).all(|id| all_data.class_of(3, id) == ServiceClass::Data));
    }

    #[test]
    fn normalization_drops_inert_configurations() {
        assert_eq!(DynamicsConfig::none().normalized(), None);
        // A flat tide is inert.
        let flat = DynamicsConfig {
            tide: Some(TidalWave { period_steps: 10, amplitude: 0.0, phase_per_q: 0.1 }),
            ..DynamicsConfig::none()
        };
        assert_eq!(flat.normalized(), None);
        // Any live feature survives.
        let churned = DynamicsConfig { churn: Some(churn()), ..DynamicsConfig::none() };
        let n = churned.clone().normalized().expect("live config survives");
        assert_eq!(n, churned);
        // A live feature plus a flat tide: the tide is stripped, the
        // rest survives.
        let mixed = DynamicsConfig {
            churn: Some(churn()),
            tide: Some(TidalWave { period_steps: 10, amplitude: 0.0, phase_per_q: 0.0 }),
            ..DynamicsConfig::none()
        };
        assert_eq!(mixed.normalized(), Some(churned));
        // A flat but invalid tide is kept, so validation still sees it.
        let broken = DynamicsConfig {
            tide: Some(TidalWave { period_steps: 0, amplitude: 0.0, phase_per_q: 0.0 }),
            ..DynamicsConfig::none()
        };
        let kept = broken.normalized().expect("an invalid tide is not normalized away");
        assert!(kept.validated().is_err());
    }

    #[test]
    fn labels_compose() {
        assert_eq!(DynamicsConfig::none().label(), "dyn-off");
        let full = DynamicsConfig {
            churn: Some(churn()),
            tide: Some(TidalWave { period_steps: 96, amplitude: 0.4, phase_per_q: 0.1 }),
            failures: vec![CellOutage { cell: Axial::ORIGIN, from_step: 1, until_step: 2 }],
            services: Some(ServiceMix {
                voice_share: 0.7,
                voice: ServiceParams {
                    mean_idle_steps: 10.0,
                    mean_holding_steps: 3.0,
                    extra_guard_channels: 0,
                },
                data: ServiceParams {
                    mean_idle_steps: 20.0,
                    mean_holding_steps: 12.0,
                    extra_guard_channels: 1,
                },
            }),
        };
        assert_eq!(full.label(), "churn10i-h100-l25+tide0.40p96+fail1+svc0.70v");
    }

    #[test]
    fn config_serde_round_trip() {
        let full = DynamicsConfig {
            churn: Some(churn()),
            tide: Some(TidalWave { period_steps: 96, amplitude: 0.4, phase_per_q: 0.1 }),
            failures: vec![CellOutage { cell: Axial::new(1, -1), from_step: 3, until_step: 9 }],
            services: None,
        };
        let json = serde_json::to_string(&full).unwrap();
        let back: DynamicsConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(full, back);
    }
}
