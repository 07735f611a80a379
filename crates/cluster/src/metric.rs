//! Distance models between shards.
//!
//! A round is the unit of time (one intra-shard consensus); the *distance*
//! between two shards is the number of rounds a message needs between them
//! (Section 3). The uniform model is distance 1 everywhere; the non-uniform
//! model allows distances `1..=D` where `D` is the diameter.

use sharding_core::ShardId;

/// A metric on shard ids. Implementations must be symmetric, zero on the
/// diagonal, and satisfy the triangle inequality.
pub trait ShardMetric: Send + Sync {
    /// Number of shards `s`.
    fn shards(&self) -> usize;

    /// Distance (in rounds) between `a` and `b`; 0 iff `a == b`.
    fn distance(&self, a: ShardId, b: ShardId) -> u64;

    /// Diameter `D = max_{a,b} distance(a, b)`.
    fn diameter(&self) -> u64 {
        let s = self.shards() as u32;
        let mut d = 0;
        for a in 0..s {
            for b in (a + 1)..s {
                d = d.max(self.distance(ShardId(a), ShardId(b)));
            }
        }
        d.max(1)
    }

    /// All shards within distance `q` of `center` (the `q`-neighborhood,
    /// including `center` itself), ascending by id.
    fn neighborhood(&self, center: ShardId, q: u64) -> Vec<ShardId> {
        (0..self.shards() as u32)
            .map(ShardId)
            .filter(|&x| self.distance(center, x) <= q)
            .collect()
    }
}

/// A declarative name for one of the standard metric shapes, the
/// configuration surface used by scenario files and experiment CLIs.
///
/// `MetricKind` is to [`ShardMetric`] what a config enum is to a trait
/// object: parse it from text (`uniform`, `line`, `ring`, `grid:WxH`),
/// then [`build`](MetricKind::build) the concrete metric for a given
/// shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// [`UniformMetric`]: distance 1 between every pair of distinct shards.
    Uniform,
    /// [`LineMetric`]: shards on a line, `distance = |i − j|`.
    Line,
    /// [`RingMetric`]: shards on a ring.
    Ring,
    /// [`GridMetric`]: shards on a `w × h` Manhattan grid (`w·h` must
    /// equal the shard count).
    Grid {
        /// Grid width.
        w: usize,
        /// Grid height.
        h: usize,
    },
}

impl MetricKind {
    /// Builds the concrete metric over `shards` shards. Fails when the
    /// kind is incompatible with the shard count (grid dimensions must
    /// multiply to `shards`).
    pub fn build(&self, shards: usize) -> Result<Box<dyn ShardMetric>, String> {
        if shards == 0 {
            return Err("metric needs at least one shard".into());
        }
        match *self {
            MetricKind::Uniform => Ok(Box::new(UniformMetric::new(shards))),
            MetricKind::Line => Ok(Box::new(LineMetric::new(shards))),
            MetricKind::Ring => Ok(Box::new(RingMetric::new(shards))),
            MetricKind::Grid { w, h } => {
                if w * h != shards {
                    Err(format!(
                        "grid:{w}x{h} covers {} shards, system has {shards}",
                        w * h
                    ))
                } else {
                    Ok(Box::new(GridMetric::new(w, h)))
                }
            }
        }
    }
}

impl std::fmt::Display for MetricKind {
    /// Renders the scenario-file spelling; round-trips through
    /// `MetricKind::from_str`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricKind::Uniform => write!(f, "uniform"),
            MetricKind::Line => write!(f, "line"),
            MetricKind::Ring => write!(f, "ring"),
            MetricKind::Grid { w, h } => write!(f, "grid:{w}x{h}"),
        }
    }
}

impl std::str::FromStr for MetricKind {
    type Err = String;

    /// Parses the scenario-file spelling: `uniform`, `line`, `ring`,
    /// `grid:WxH`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.split_once(':') {
            None => match s {
                "uniform" => Ok(MetricKind::Uniform),
                "line" => Ok(MetricKind::Line),
                "ring" => Ok(MetricKind::Ring),
                other => Err(format!(
                    "unknown metric `{other}` (expected uniform, line, ring, or grid:WxH)"
                )),
            },
            Some(("grid", dims)) => {
                let (w, h) = dims
                    .split_once('x')
                    .ok_or_else(|| format!("grid dimensions `{dims}` are not WxH"))?;
                let w: usize = w.parse().map_err(|_| format!("`{w}` is not an integer"))?;
                let h: usize = h.parse().map_err(|_| format!("`{h}` is not an integer"))?;
                if w == 0 || h == 0 {
                    return Err("grid dimensions must be >= 1".into());
                }
                Ok(MetricKind::Grid { w, h })
            }
            Some((other, _)) => Err(format!("metric `{other}` takes no `:`-argument")),
        }
    }
}

/// The uniform communication model: every pair of distinct shards is at
/// distance exactly 1 (a clique with unit weights).
#[derive(Debug, Clone, Copy)]
pub struct UniformMetric {
    s: usize,
}

impl UniformMetric {
    /// Uniform metric over `s` shards.
    pub fn new(s: usize) -> Self {
        assert!(s >= 1);
        UniformMetric { s }
    }
}

impl ShardMetric for UniformMetric {
    fn shards(&self) -> usize {
        self.s
    }
    fn distance(&self, a: ShardId, b: ShardId) -> u64 {
        u64::from(a != b)
    }
    fn diameter(&self) -> u64 {
        1
    }
}

/// Shards arranged on a line: `distance(S_i, S_j) = |i − j|` — the
/// topology of the paper's Algorithm 2 simulation (Section 7).
#[derive(Debug, Clone, Copy)]
pub struct LineMetric {
    s: usize,
}

impl LineMetric {
    /// Line metric over `s` shards.
    pub fn new(s: usize) -> Self {
        assert!(s >= 1);
        LineMetric { s }
    }
}

impl ShardMetric for LineMetric {
    fn shards(&self) -> usize {
        self.s
    }
    fn distance(&self, a: ShardId, b: ShardId) -> u64 {
        (a.raw() as i64 - b.raw() as i64).unsigned_abs()
    }
    fn diameter(&self) -> u64 {
        (self.s as u64 - 1).max(1)
    }
}

/// Shards on a ring: `distance = min(|i−j|, s − |i−j|)`.
#[derive(Debug, Clone, Copy)]
pub struct RingMetric {
    s: usize,
}

impl RingMetric {
    /// Ring metric over `s` shards.
    pub fn new(s: usize) -> Self {
        assert!(s >= 1);
        RingMetric { s }
    }
}

impl ShardMetric for RingMetric {
    fn shards(&self) -> usize {
        self.s
    }
    fn distance(&self, a: ShardId, b: ShardId) -> u64 {
        let d = (a.raw() as i64 - b.raw() as i64).unsigned_abs();
        d.min(self.s as u64 - d)
    }
    fn diameter(&self) -> u64 {
        ((self.s / 2) as u64).max(1)
    }
}

/// Shards on a `w × h` grid with Manhattan distance; shard `i` sits at
/// `(i % w, i / w)`.
#[derive(Debug, Clone, Copy)]
pub struct GridMetric {
    w: usize,
    h: usize,
}

impl GridMetric {
    /// Grid metric; requires `w·h >= 1`.
    pub fn new(w: usize, h: usize) -> Self {
        assert!(w >= 1 && h >= 1);
        GridMetric { w, h }
    }
}

impl ShardMetric for GridMetric {
    fn shards(&self) -> usize {
        self.w * self.h
    }
    fn distance(&self, a: ShardId, b: ShardId) -> u64 {
        let (ax, ay) = (a.index() % self.w, a.index() / self.w);
        let (bx, by) = (b.index() % self.w, b.index() / self.w);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }
    fn diameter(&self) -> u64 {
        ((self.w - 1) + (self.h - 1)).max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_metric_axioms(m: &dyn ShardMetric) {
        let s = m.shards() as u32;
        for a in 0..s {
            assert_eq!(m.distance(ShardId(a), ShardId(a)), 0);
            for b in 0..s {
                assert_eq!(
                    m.distance(ShardId(a), ShardId(b)),
                    m.distance(ShardId(b), ShardId(a))
                );
                if a != b {
                    assert!(m.distance(ShardId(a), ShardId(b)) >= 1);
                }
                for c in 0..s {
                    assert!(
                        m.distance(ShardId(a), ShardId(b))
                            <= m.distance(ShardId(a), ShardId(c))
                                + m.distance(ShardId(c), ShardId(b))
                    );
                }
            }
        }
    }

    #[test]
    fn axioms_hold_for_all_shapes() {
        check_metric_axioms(&UniformMetric::new(6));
        check_metric_axioms(&LineMetric::new(7));
        check_metric_axioms(&RingMetric::new(8));
        check_metric_axioms(&GridMetric::new(3, 4));
    }

    #[test]
    fn line_matches_paper_example() {
        // "the distance between S1 and S2 is 1 … S1 to S3 is 2, S1 to S4 is 3"
        let m = LineMetric::new(64);
        assert_eq!(m.distance(ShardId(0), ShardId(1)), 1);
        assert_eq!(m.distance(ShardId(0), ShardId(2)), 2);
        assert_eq!(m.distance(ShardId(0), ShardId(3)), 3);
        assert_eq!(m.diameter(), 63);
    }

    #[test]
    fn uniform_diameter_is_one() {
        let m = UniformMetric::new(64);
        assert_eq!(m.diameter(), 1);
        assert_eq!(m.distance(ShardId(5), ShardId(5)), 0);
        assert_eq!(m.distance(ShardId(5), ShardId(6)), 1);
    }

    #[test]
    fn ring_wraps() {
        let m = RingMetric::new(10);
        assert_eq!(m.distance(ShardId(0), ShardId(9)), 1);
        assert_eq!(m.distance(ShardId(0), ShardId(5)), 5);
        assert_eq!(m.diameter(), 5);
    }

    #[test]
    fn grid_manhattan() {
        let m = GridMetric::new(4, 3);
        // shard 0 at (0,0), shard 11 at (3,2).
        assert_eq!(m.distance(ShardId(0), ShardId(11)), 5);
        assert_eq!(m.diameter(), 5);
        assert_eq!(m.shards(), 12);
    }

    #[test]
    fn neighborhood_is_sorted_and_inclusive() {
        let m = LineMetric::new(10);
        let n = m.neighborhood(ShardId(4), 2);
        let ids: Vec<u32> = n.iter().map(|s| s.raw()).collect();
        assert_eq!(ids, vec![2, 3, 4, 5, 6]);
        assert_eq!(m.neighborhood(ShardId(0), 0), vec![ShardId(0)]);
    }

    #[test]
    fn metric_kind_roundtrips_and_builds() {
        for kind in [
            MetricKind::Uniform,
            MetricKind::Line,
            MetricKind::Ring,
            MetricKind::Grid { w: 4, h: 2 },
        ] {
            let spelled = kind.to_string();
            assert_eq!(spelled.parse::<MetricKind>().unwrap(), kind, "{spelled}");
            let m = kind.build(8).unwrap();
            assert_eq!(m.shards(), 8);
        }
        assert_eq!(MetricKind::Uniform.build(8).unwrap().diameter(), 1);
        assert_eq!(MetricKind::Line.build(8).unwrap().diameter(), 7);
    }

    #[test]
    fn metric_kind_rejects_bad_input() {
        for bad in ["", "torus", "grid:8", "grid:0x4", "grid:axb", "line:3"] {
            assert!(bad.parse::<MetricKind>().is_err(), "{bad:?} should fail");
        }
        assert!(MetricKind::Grid { w: 3, h: 3 }.build(8).is_err());
        assert!(MetricKind::Line.build(0).is_err());
    }
}
