//! Property tests for the resample cursor's O(segments) skip:
//! `ResampleIter::nth(k)` must yield exactly the point that `k + 1`
//! calls to `next` yield, and leave the cursor where they leave it, so
//! everything it yields afterwards is bit-identical too. The fleet
//! engine fast-forwards every restored UE with one `nth` call, so any
//! drift here would change resumed results.
//!
//! Walks are random polylines with random spacings, with repeated
//! waypoints (zero-length segments) mixed in; skips run past the end
//! and are chained several times on one cursor.

use fuzzy_handover::geometry::Vec2;
use fuzzy_handover::mobility::{ResampleIter, TracePoint, Trajectory};
use proptest::prelude::*;

/// Deterministic xorshift stream from a drawn seed (the vendored
/// proptest draws scalars; collections are derived).
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random walk of `legs` legs of up to `max_leg_km`, where roughly one
/// waypoint in `repeat_every` is repeated (a zero-length segment).
fn random_walk(seed: u64, legs: usize, max_leg_km: f64, repeat_every: u64) -> Trajectory {
    let mut rng = Xorshift(seed | 1);
    let mut at = Vec2::new(rng.unit() * 4.0 - 2.0, rng.unit() * 4.0 - 2.0);
    let mut waypoints = vec![at];
    for _ in 0..legs {
        if rng.next() % repeat_every == 0 {
            waypoints.push(at);
        }
        let heading = rng.unit() * std::f64::consts::TAU;
        let length = rng.unit() * max_leg_km;
        at = Vec2::new(at.x + length * heading.cos(), at.y + length * heading.sin());
        waypoints.push(at);
    }
    Trajectory::new(waypoints)
}

fn same_point(a: Option<TracePoint>, b: Option<TracePoint>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.pos.x.to_bits() == b.pos.x.to_bits()
                && a.pos.y.to_bits() == b.pos.y.to_bits()
                && a.cum_km.to_bits() == b.cum_km.to_bits()
        }
        _ => false,
    }
}

/// `k` calls to `next` followed by one more: the reference for `nth(k)`.
fn stepped_nth(it: &mut ResampleIter<'_>, k: usize) -> Option<TracePoint> {
    for _ in 0..k {
        it.next();
    }
    it.next()
}

/// Both cursors yield the same remaining points, bit for bit.
fn same_rest(mut a: ResampleIter<'_>, mut b: ResampleIter<'_>) -> bool {
    loop {
        let (x, y) = (a.next(), b.next());
        if !same_point(x, y) {
            return false;
        }
        if x.is_none() {
            return true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One skip from a fresh cursor, anywhere from 0 to past the end.
    #[test]
    fn nth_is_k_calls_to_next(
        seed in 0u64..u64::MAX,
        legs in 0usize..24,
        max_leg_km in 0.0f64..3.0,
        spacing in 0.01f64..1.5,
        repeat_every in 1u64..6,
        frac in 0.0f64..1.3,
    ) {
        let walk = random_walk(seed, legs, max_leg_km, repeat_every);
        let total = walk.resample_len(spacing);
        let k = (total as f64 * frac) as usize;
        let mut skipped = walk.resample_iter(spacing);
        let mut stepped = walk.resample_iter(spacing);
        let a = skipped.nth(k);
        let b = stepped_nth(&mut stepped, k);
        prop_assert!(same_point(a, b), "nth({k}) of {total}: {a:?} vs {b:?}");
        prop_assert_eq!(a.is_some(), k < total);
        prop_assert!(same_rest(skipped, stepped), "cursors diverge after nth({k})");
    }

    /// Chained skips on one cursor, including skips of 0 and skips that
    /// start or land on segment boundaries and past the end.
    #[test]
    fn repeated_nth_matches_next(
        seed in 0u64..u64::MAX,
        legs in 1usize..16,
        spacing in 0.05f64..1.0,
        repeat_every in 1u64..4,
        skip_seed in 0u64..u64::MAX,
    ) {
        let walk = random_walk(seed, legs, 2.0, repeat_every);
        let total = walk.resample_len(spacing);
        let mut skips = Xorshift(skip_seed | 1);
        let mut skipped = walk.resample_iter(spacing);
        let mut stepped = walk.resample_iter(spacing);
        for round in 0..8 {
            let k = (skips.next() % (total as u64 / 3 + 2)) as usize;
            let a = skipped.nth(k);
            let b = stepped_nth(&mut stepped, k);
            prop_assert!(same_point(a, b), "round {round}: nth({k}) of {total}: {a:?} vs {b:?}");
        }
        prop_assert!(same_rest(skipped, stepped));
    }
}

/// Walks made only of zero-length segments, a single point, and skips
/// far past the end (`usize::MAX` included).
#[test]
fn degenerate_walks_and_huge_skips() {
    let still = Trajectory::new(vec![Vec2::new(0.3, 0.1); 5]);
    let single = Trajectory::new(vec![Vec2::new(-1.0, 2.0)]);
    let l_shape = Trajectory::new(vec![
        Vec2::ZERO,
        Vec2::new(3.0, 0.0),
        Vec2::new(3.0, 0.0),
        Vec2::new(3.0, 4.0),
    ]);
    for walk in [&still, &single, &l_shape] {
        let total = walk.resample_len(0.5);
        for k in [0, 1, total.saturating_sub(1), total, total + 1, usize::MAX] {
            let mut skipped = walk.resample_iter(0.5);
            let mut stepped = walk.resample_iter(0.5);
            let a = skipped.nth(k);
            let b = if k <= total + 1 { stepped_nth(&mut stepped, k) } else { None };
            assert!(same_point(a, b), "nth({k}) of {total}");
            if k <= total + 1 {
                assert!(same_rest(skipped, stepped));
            } else {
                assert!(skipped.next().is_none(), "a cursor skipped past the end stays done");
            }
        }
    }
}
