//! Property tests pinning the compiled measurement plane's bit-identity
//! contracts (the radio analogue of `tests/compiled_fis_props.rs`):
//!
//! 1. `ShadowingLane::advance_all` is bit-identical to advancing a
//!    `Vec<ShadowingProcess>` in a loop, across σ/decorrelation/step
//!    sweeps (including σ = 0 and the fresh-initialisation step);
//! 2. `ShadowingLane::advance_subset` (the pruned engine's lazy update)
//!    is slot-for-slot bit-identical to scalar processes advanced by the
//!    same accumulated distances;
//! 3. `MeasurementNoise::apply_slice` is bit-identical to the scalar
//!    `apply` loop;
//! 4. `BsRadio::compiled()` reproduces the scalar link budget bit for
//!    bit over every path-loss model family;
//! 5. the block-loop batch kernel `received_power_dbm_batch` equals the
//!    scalar budget per element;
//! 6. the batched Rayleigh/Rician samplers (`sample_db_fill`) are the
//!    scalar sampler loops, draw for draw.

use fuzzy_handover::geometry::Vec2;
use fuzzy_handover::radio::{
    BsRadio, MeasurementNoise, PathLoss, RayleighFading, RicianFading, ShadowingConfig,
    ShadowingLane, ShadowingProcess,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn shadowing_strategy() -> impl Strategy<Value = ShadowingConfig> {
    (prop_oneof![Just(0.0f64), 0.1f64..12.0], 0.005f64..2.0).prop_map(
        |(sigma_db, decorrelation_km)| ShadowingConfig { sigma_db, decorrelation_km },
    )
}

fn pathloss_strategy() -> impl Strategy<Value = PathLoss> {
    prop_oneof![
        Just(PathLoss::paper_calibrated()),
        Just(PathLoss::paper_field()),
        (100.0f64..2000.0).prop_map(|freq_mhz| PathLoss::FreeSpace { freq_mhz }),
        (10.0f64..100.0, 1.0f64..3.0)
            .prop_map(|(h_bs_m, h_ms_m)| PathLoss::TwoRay { h_bs_m, h_ms_m }),
        (900.0f64..2000.0, 30.0f64..100.0, 1.0f64..3.0).prop_map(
            |(freq_mhz, h_bs_m, h_ms_m)| PathLoss::OkumuraHata { freq_mhz, h_bs_m, h_ms_m }
        ),
        (80.0f64..160.0, 2.0f64..5.0).prop_map(|(pl0_db, exponent)| {
            PathLoss::LogDistance { pl0_db, exponent, d0_km: 1.0 }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 1: the lane is the process loop, bit for bit.
    #[test]
    fn lane_is_bit_identical_to_process_loop(
        config in shadowing_strategy(),
        seed in 0u64..u64::MAX,
        walk_seed in 0u64..u64::MAX,
        n in 1usize..40,
        steps in 1usize..60,
    ) {
        let mut lane = ShadowingLane::new(config, n);
        let mut processes: Vec<ShadowingProcess> =
            (0..n).map(|_| ShadowingProcess::new(config)).collect();
        let mut lane_rng = StdRng::seed_from_u64(seed);
        let mut loop_rng = StdRng::seed_from_u64(seed);
        let mut walk_rng = StdRng::seed_from_u64(walk_seed);
        for step in 0..steps {
            let delta: f64 = walk_rng.gen::<f64>() * 1.5;
            lane.advance_all(delta, &mut lane_rng);
            for p in &mut processes {
                p.advance(delta, &mut loop_rng);
            }
            for (slot, p) in processes.iter().enumerate() {
                prop_assert_eq!(
                    lane.values()[slot].to_bits(),
                    p.current_db().to_bits(),
                    "slot {} step {}",
                    slot,
                    step
                );
            }
        }
    }

    /// Contract 2: the lazy subset update equals scalar processes fed the
    /// same accumulated distances (the Gudmundson-composition path the
    /// pruned candidate mode takes).
    #[test]
    fn subset_update_is_bit_identical_to_lazy_scalar_processes(
        config in shadowing_strategy(),
        seed in 0u64..u64::MAX,
        walk_seed in 0u64..u64::MAX,
        n in 2usize..24,
        steps in 1usize..40,
    ) {
        let mut lane = ShadowingLane::new(config, n);
        let mut processes: Vec<ShadowingProcess> =
            (0..n).map(|_| ShadowingProcess::new(config)).collect();
        let mut lane_rng = StdRng::seed_from_u64(seed);
        let mut loop_rng = StdRng::seed_from_u64(seed);
        let mut walk_rng = StdRng::seed_from_u64(walk_seed);
        let mut last_lane = vec![0.0f64; n];
        let mut last_ref = vec![0.0f64; n];
        let mut now = 0.0;
        for step in 0..steps {
            now += walk_rng.gen::<f64>() * 0.9;
            // A pseudo-random non-empty subset; the engine's draw order
            // is the subset order, and both sides use the same one.
            let mask: u64 = walk_rng.gen();
            let subset: Vec<u32> = (0..n as u32)
                .filter(|s| mask & (1 << (s % 63)) != 0)
                .collect();
            let subset = if subset.is_empty() { vec![0u32] } else { subset };
            lane.advance_subset(&subset, now, &mut last_lane, &mut lane_rng);
            for &s in &subset {
                let k = s as usize;
                processes[k].advance(now - last_ref[k], &mut loop_rng);
                last_ref[k] = now;
            }
            for (slot, p) in processes.iter().enumerate() {
                prop_assert_eq!(
                    lane.values()[slot].to_bits(),
                    p.current_db().to_bits(),
                    "slot {} step {}",
                    slot,
                    step
                );
            }
            for k in 0..n {
                prop_assert_eq!(last_lane[k].to_bits(), last_ref[k].to_bits());
            }
        }
    }

    /// Contract 3: the batched noise sampler is the scalar loop.
    #[test]
    fn noise_slice_is_bit_identical_to_scalar_loop(
        sigma in prop_oneof![Just(0.0f64), 0.01f64..8.0],
        seed in 0u64..u64::MAX,
        clean_seed in 0u64..u64::MAX,
        len in 1usize..80,
    ) {
        let mut clean_rng = StdRng::seed_from_u64(clean_seed);
        let clean: Vec<f64> =
            (0..len).map(|_| -150.0 + 110.0 * clean_rng.gen::<f64>()).collect();
        let noise = MeasurementNoise::new(sigma);
        let mut batch = clean.clone();
        noise.apply_slice(&mut batch, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        for (b, &c) in batch.iter().zip(&clean) {
            prop_assert_eq!(b.to_bits(), noise.apply(c, &mut rng).to_bits());
        }
    }

    /// Contract 4: the compiled link budget is the scalar one, for every
    /// path-loss family, TX power and geometry.
    #[test]
    fn compiled_budget_is_bit_identical_to_scalar(
        path_loss in pathloss_strategy(),
        tx_power_w in 0.5f64..50.0,
        bs_x in -5.0f64..5.0,
        bs_y in -5.0f64..5.0,
        point_seed in 0u64..u64::MAX,
        n_points in 1usize..50,
    ) {
        let radio = BsRadio { tx_power_w, path_loss, ..BsRadio::paper_default() };
        let compiled = radio.compiled();
        let bs_pos = Vec2::new(bs_x, bs_y);
        let mut rng = StdRng::seed_from_u64(point_seed);
        for _ in 0..n_points {
            let ms = Vec2::new(
                -9.0 + 18.0 * rng.gen::<f64>(),
                -9.0 + 18.0 * rng.gen::<f64>(),
            );
            prop_assert_eq!(
                radio.received_power_dbm(bs_pos, ms).to_bits(),
                compiled.received_power_dbm(bs_pos, ms).to_bits(),
                "at {:?}",
                ms
            );
        }
    }

    /// Contract 5: the fixed-width block loops (interior blocks + tail)
    /// are the scalar budget per element, across block-boundary lengths.
    #[test]
    fn batch_budget_is_bit_identical_to_scalar(
        path_loss in pathloss_strategy(),
        tx_power_w in 0.5f64..50.0,
        point_seed in 0u64..u64::MAX,
        n_points in 1usize..40,
    ) {
        let radio = BsRadio { tx_power_w, path_loss, ..BsRadio::paper_default() };
        let compiled = radio.compiled();
        let bs_pos = Vec2::new(0.4, -0.9);
        let mut rng = StdRng::seed_from_u64(point_seed);
        let positions: Vec<Vec2> = (0..n_points)
            .map(|_| Vec2::new(-9.0 + 18.0 * rng.gen::<f64>(), -9.0 + 18.0 * rng.gen::<f64>()))
            .collect();
        let mut batch = vec![0.0f64; n_points];
        compiled.received_power_dbm_batch(bs_pos, &positions, &mut batch);
        for (k, &ms) in positions.iter().enumerate() {
            let scalar = compiled.received_power_dbm(bs_pos, ms);
            prop_assert_eq!(batch[k].to_bits(), scalar.to_bits(), "slot {}", k);
        }
    }

    /// Contract 6: the batched fading samplers are the scalar loops.
    #[test]
    fn fading_fills_are_bit_identical_to_scalar_loops(
        seed in 0u64..u64::MAX,
        k_factor in 0.1f64..20.0,
        len in 0usize..70,
    ) {
        let rayleigh = RayleighFading;
        let mut batch = vec![0.0f64; len];
        rayleigh.sample_db_fill(&mut batch, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        for (k, &v) in batch.iter().enumerate() {
            prop_assert_eq!(v.to_bits(), rayleigh.sample_db(&mut rng).to_bits(), "slot {}", k);
        }

        let rician = RicianFading::new(k_factor);
        let mut batch = vec![0.0f64; len];
        rician.sample_db_fill(&mut batch, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        for (k, &v) in batch.iter().enumerate() {
            prop_assert_eq!(v.to_bits(), rician.sample_db(&mut rng).to_bits(), "slot {}", k);
        }
    }
}
