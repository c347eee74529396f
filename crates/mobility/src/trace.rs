//! Trajectories and arclength resampling.

use cellgeom::Vec2;
use serde::{Deserialize, Serialize};

/// A point on a resampled trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// World position in km.
    pub pos: Vec2,
    /// Cumulative path distance from the trajectory start, in km.
    pub cum_km: f64,
}

/// An ordered polyline of waypoints (the output of a mobility model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    waypoints: Vec<Vec2>,
}

impl Trajectory {
    /// Build from waypoints (at least one required).
    pub fn new(waypoints: Vec<Vec2>) -> Self {
        assert!(!waypoints.is_empty(), "a trajectory needs at least one waypoint");
        assert!(waypoints.iter().all(|w| w.is_finite()), "waypoints must be finite");
        Trajectory { waypoints }
    }

    /// The waypoints.
    pub fn waypoints(&self) -> &[Vec2] {
        &self.waypoints
    }

    /// Number of waypoints.
    pub fn len(&self) -> usize {
        self.waypoints.len()
    }

    /// Never true (construction requires ≥ 1 waypoint).
    pub fn is_empty(&self) -> bool {
        self.waypoints.is_empty()
    }

    /// First waypoint.
    pub fn start(&self) -> Vec2 {
        self.waypoints[0]
    }

    /// Last waypoint.
    pub fn end(&self) -> Vec2 {
        *self.waypoints.last().expect("non-empty")
    }

    /// Total polyline length in km.
    pub fn total_length_km(&self) -> f64 {
        self.waypoints.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Position at path distance `s` km from the start (clamped to the
    /// trajectory ends).
    pub fn position_at(&self, s: f64) -> Vec2 {
        if s <= 0.0 {
            return self.start();
        }
        let mut remaining = s;
        for w in self.waypoints.windows(2) {
            let seg = w[0].distance(w[1]);
            if remaining <= seg {
                if seg == 0.0 {
                    return w[0];
                }
                return w[0].lerp(w[1], remaining / seg);
            }
            remaining -= seg;
        }
        self.end()
    }

    /// Resample at (approximately) `spacing_km` intervals of arclength.
    ///
    /// Both the start and the exact end point are always included; every
    /// original waypoint is also included so corners are never cut. Points
    /// are strictly increasing in `cum_km`.
    pub fn resample(&self, spacing_km: f64) -> Vec<TracePoint> {
        self.resample_iter(spacing_km).collect()
    }

    /// Streaming version of [`Trajectory::resample`]: yields exactly the
    /// same points, lazily, without materialising the full vector. The
    /// fleet engine keeps one of these per mobile station so a 10k-UE run
    /// never holds 10k resampled trajectories in memory at once.
    pub fn resample_iter(&self, spacing_km: f64) -> ResampleIter<'_> {
        assert!(spacing_km > 0.0, "spacing must be positive");
        ResampleIter {
            waypoints: &self.waypoints,
            spacing_km,
            seg: 0,
            k: 0,
            n_steps: 0,
            seg_len: 0.0,
            cum: 0.0,
            started: false,
        }
    }

    /// Number of points [`Trajectory::resample`] would produce, without
    /// materialising them.
    pub fn resample_len(&self, spacing_km: f64) -> usize {
        self.resample_iter(spacing_km).count()
    }

    /// Pair each resampled point with a timestamp given a constant speed.
    /// Returns `(time_s, point)` tuples. Speed must be positive.
    pub fn with_speed(&self, spacing_km: f64, speed_kmh: f64) -> Vec<(f64, TracePoint)> {
        assert!(speed_kmh > 0.0, "speed must be positive");
        self.resample(spacing_km)
            .into_iter()
            .map(|p| (p.cum_km / speed_kmh * 3600.0, p))
            .collect()
    }
}

/// Lazy arclength resampler over a borrowed [`Trajectory`]; see
/// [`Trajectory::resample_iter`]. Yields the bit-identical point sequence
/// of [`Trajectory::resample`].
#[derive(Debug, Clone)]
pub struct ResampleIter<'a> {
    waypoints: &'a [Vec2],
    spacing_km: f64,
    /// Index of the current segment's start waypoint.
    seg: usize,
    /// Next sample within the current segment (`1..=n_steps`; 0 = the
    /// segment has not been entered yet).
    k: usize,
    n_steps: usize,
    seg_len: f64,
    /// Cumulative arclength at the start of the current segment.
    cum: f64,
    /// Whether the leading start point has been yielded.
    started: bool,
}

impl Iterator for ResampleIter<'_> {
    type Item = TracePoint;

    fn next(&mut self) -> Option<TracePoint> {
        if !self.started {
            self.started = true;
            return Some(TracePoint { pos: self.waypoints[0], cum_km: 0.0 });
        }
        loop {
            if self.k == 0 {
                // Enter the next non-degenerate segment.
                if self.seg + 1 >= self.waypoints.len() {
                    return None;
                }
                let seg_len = self.waypoints[self.seg].distance(self.waypoints[self.seg + 1]);
                if seg_len == 0.0 {
                    self.seg += 1;
                    continue;
                }
                self.seg_len = seg_len;
                self.n_steps = (seg_len / self.spacing_km).ceil() as usize;
                self.k = 1;
            }
            let t = self.k as f64 / self.n_steps as f64;
            let point = TracePoint {
                pos: self.waypoints[self.seg].lerp(self.waypoints[self.seg + 1], t),
                cum_km: self.cum + self.seg_len * t,
            };
            if self.k == self.n_steps {
                self.cum += self.seg_len;
                self.seg += 1;
                self.k = 0;
            } else {
                self.k += 1;
            }
            return Some(point);
        }
    }

    /// Skip `n` points and yield the next one, in O(segments): whole
    /// segments are stepped over with the same `seg_len`/`n_steps`/`cum`
    /// arithmetic as [`Iterator::next`], so the cursor lands in the
    /// bit-identical state `n + 1` calls to `next` would leave.
    fn nth(&mut self, mut n: usize) -> Option<TracePoint> {
        if !self.started {
            if n == 0 {
                return self.next();
            }
            self.started = true;
            n -= 1;
        }
        loop {
            if self.k == 0 {
                if self.seg + 1 >= self.waypoints.len() {
                    return None;
                }
                let seg_len = self.waypoints[self.seg].distance(self.waypoints[self.seg + 1]);
                if seg_len == 0.0 {
                    self.seg += 1;
                    continue;
                }
                self.seg_len = seg_len;
                self.n_steps = (seg_len / self.spacing_km).ceil() as usize;
                self.k = 1;
            }
            // Points left in this segment, `k..=n_steps`. A segment whose
            // step count underflowed to 0 never ends under `next` either.
            match self.n_steps.checked_sub(self.k).map(|rest| rest + 1) {
                Some(left) if n >= left => {
                    n -= left;
                    self.cum += self.seg_len;
                    self.seg += 1;
                    self.k = 0;
                }
                _ => {
                    self.k = self.k.saturating_add(n);
                    return self.next();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Trajectory {
        Trajectory::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(3.0, 0.0),
            Vec2::new(3.0, 4.0),
        ])
    }

    #[test]
    fn lengths() {
        let t = l_shape();
        assert_eq!(t.len(), 3);
        assert!((t.total_length_km() - 7.0).abs() < 1e-12);
        assert_eq!(t.start(), Vec2::ZERO);
        assert_eq!(t.end(), Vec2::new(3.0, 4.0));
        let single = Trajectory::new(vec![Vec2::new(1.0, 1.0)]);
        assert_eq!(single.total_length_km(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one waypoint")]
    fn empty_rejected() {
        let _ = Trajectory::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rejected() {
        let _ = Trajectory::new(vec![Vec2::new(f64::NAN, 0.0)]);
    }

    #[test]
    fn position_at_arclength() {
        let t = l_shape();
        assert_eq!(t.position_at(-1.0), Vec2::ZERO);
        assert_eq!(t.position_at(0.0), Vec2::ZERO);
        assert_eq!(t.position_at(1.5), Vec2::new(1.5, 0.0));
        assert_eq!(t.position_at(3.0), Vec2::new(3.0, 0.0));
        assert_eq!(t.position_at(5.0), Vec2::new(3.0, 2.0));
        assert_eq!(t.position_at(7.0), Vec2::new(3.0, 4.0));
        assert_eq!(t.position_at(100.0), Vec2::new(3.0, 4.0), "clamps at end");
    }

    #[test]
    fn resample_structure() {
        let t = l_shape();
        let pts = t.resample(0.5);
        // Starts at 0, ends at the full length.
        assert_eq!(pts[0].cum_km, 0.0);
        assert!((pts.last().unwrap().cum_km - 7.0).abs() < 1e-12);
        assert_eq!(pts.last().unwrap().pos, Vec2::new(3.0, 4.0));
        // Strictly increasing arclength, spacing never exceeds requested.
        for w in pts.windows(2) {
            assert!(w[1].cum_km > w[0].cum_km);
            assert!(w[1].cum_km - w[0].cum_km <= 0.5 + 1e-12);
        }
        // The corner waypoint is present.
        assert!(pts.iter().any(|p| p.pos.distance(Vec2::new(3.0, 0.0)) < 1e-12));
        // Positions are consistent with position_at.
        for p in &pts {
            assert!(p.pos.distance(t.position_at(p.cum_km)) < 1e-9);
        }
    }

    #[test]
    fn resample_coarse_spacing_still_keeps_corners() {
        let t = l_shape();
        let pts = t.resample(10.0);
        // start, corner, end.
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[1].pos, Vec2::new(3.0, 0.0));
    }

    #[test]
    fn degenerate_segments_skipped() {
        let t = Trajectory::new(vec![
            Vec2::ZERO,
            Vec2::ZERO,
            Vec2::new(1.0, 0.0),
        ]);
        let pts = t.resample(0.25);
        assert!((pts.last().unwrap().cum_km - 1.0).abs() < 1e-12);
        for w in pts.windows(2) {
            assert!(w[1].cum_km > w[0].cum_km, "strictly increasing");
        }
    }

    #[test]
    fn timestamps_from_speed() {
        let t = l_shape();
        let timed = t.with_speed(1.0, 36.0); // 36 km/h = 10 m/s
        let (t_end, last) = timed.last().unwrap();
        assert!((last.cum_km - 7.0).abs() < 1e-12);
        assert!((t_end - 700.0).abs() < 1e-9, "7 km at 10 m/s = 700 s");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_spacing_rejected() {
        let _ = l_shape().resample(0.0);
    }

    #[test]
    fn serde_round_trip() {
        let t = l_shape();
        let back: Trajectory = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn resample_iter_matches_resample_bitwise() {
        let trajectories = [
            l_shape(),
            Trajectory::new(vec![Vec2::new(1.0, 1.0)]),
            Trajectory::new(vec![Vec2::ZERO, Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(1.0, 0.0)]),
            Trajectory::new(vec![Vec2::new(-2.0, 0.3), Vec2::new(0.7, -1.9), Vec2::new(0.7, 2.0)]),
        ];
        for t in &trajectories {
            for spacing in [0.05, 0.3, 1.0, 10.0] {
                let eager = t.resample(spacing);
                let lazy: Vec<TracePoint> = t.resample_iter(spacing).collect();
                assert_eq!(eager.len(), lazy.len());
                for (a, b) in eager.iter().zip(&lazy) {
                    assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
                    assert_eq!(a.pos.y.to_bits(), b.pos.y.to_bits());
                    assert_eq!(a.cum_km.to_bits(), b.cum_km.to_bits());
                }
                assert_eq!(t.resample_len(spacing), eager.len());
            }
        }
    }

    #[test]
    fn resample_iter_is_lazy_and_restartable() {
        let t = l_shape();
        let mut it = t.resample_iter(0.5);
        let first = it.next().unwrap();
        assert_eq!(first.cum_km, 0.0);
        // A fresh iterator starts over.
        let again = t.resample_iter(0.5).next().unwrap();
        assert_eq!(first, again);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn resample_iter_zero_spacing_rejected() {
        let _ = l_shape().resample_iter(0.0);
    }
}
