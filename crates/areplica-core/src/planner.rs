//! SLO-compliant plan generation (Algorithm 3).
//!
//! Iterates parallelism exponentially from a single function upward; at each
//! level it compares running functions at the source vs the destination, and
//! returns the *first* (cheapest) SLO-compliant plan. If no plan can meet the
//! SLO, it returns the fastest one — with an SLO of zero this degenerates to
//! "always fastest", the configuration the paper's delay tables use.

use simkernel::SimDuration;

use crate::config::EngineConfig;
use crate::model::{ExecSide, ModelError, PathKey, PerfModel};
use cloudapi::RegionId;

/// A replication plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Number of replicator functions (1 = single; with `local`, zero extra
    /// functions are invoked).
    pub n: u32,
    /// Where the functions run.
    pub side: ExecSide,
    /// Whether the orchestrator replicates the object itself (`T_func = 0`).
    pub local: bool,
    /// The model's percentile prediction for this plan.
    pub predicted: SimDuration,
    /// Whether the prediction meets the (remaining) SLO.
    pub slo_met: bool,
}

/// Per-side parallelism ceilings, for quota-aware planning (§6 "Resource
/// limitations": an account's concurrent-instance quota is finite; a planner
/// that ignored it would queue on the platform instead of meeting its SLO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideCaps {
    /// Available concurrency at the source region.
    pub src: u32,
    /// Available concurrency at the destination region.
    pub dst: u32,
}

impl SideCaps {
    /// No quota pressure on either side.
    pub const UNLIMITED: SideCaps = SideCaps {
        src: u32::MAX,
        dst: u32::MAX,
    };

    fn for_side(&self, side: ExecSide) -> u32 {
        match side {
            ExecSide::Source => self.src,
            ExecSide::Destination => self.dst,
        }
    }
}

/// What the fastest plan for one `(src, dst)` pair reads besides the
/// model's parameters for its two paths; [`PerfModel`] memoizes that plan
/// under this key and drops it whenever either path changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct FastestKey {
    /// The object's chunk count at the model's chunk size.
    chunks: u64,
    /// The highest parallelism level the planner evaluates.
    max_n: u32,
    /// Whether the object fits the orchestrator-local threshold.
    local_ok: bool,
    /// The percentile, `p.to_bits()`.
    p: u64,
}

/// Generates a plan for replicating `size` bytes from `src` to `dst` with a
/// remaining budget of `slo_rep` (already net of the notification delay) at
/// percentile `p`.
///
/// `slo_rep = None` means the SLO is unattainable/zero: every parallelism
/// level is evaluated and the fastest plan wins.
pub fn generate_plan(
    model: &mut PerfModel,
    cfg: &EngineConfig,
    src: RegionId,
    dst: RegionId,
    size: u64,
    slo_rep: Option<SimDuration>,
    p: f64,
) -> Result<Plan, ModelError> {
    generate_plan_with_caps(model, cfg, src, dst, size, slo_rep, p, SideCaps::UNLIMITED)
}

/// [`generate_plan`] with per-side concurrency ceilings: a side whose quota
/// cannot host `n` instances is skipped at that parallelism level.
#[allow(clippy::too_many_arguments)]
pub fn generate_plan_with_caps(
    model: &mut PerfModel,
    cfg: &EngineConfig,
    src: RegionId,
    dst: RegionId,
    size: u64,
    slo_rep: Option<SimDuration>,
    p: f64,
    caps: SideCaps,
) -> Result<Plan, ModelError> {
    let num_parts = cfg.num_parts(size);
    let max_n = cfg
        .max_parallelism
        .min(num_parts)
        .min(caps.src.max(caps.dst).max(1))
        .max(1);
    // With no SLO and no quota every level is evaluated and the fastest
    // plan wins: a pure function of the key and the model, so it is memoized.
    let fastest_key = (slo_rep.is_none() && caps == SideCaps::UNLIMITED).then(|| FastestKey {
        chunks: size.div_ceil(model.chunk_size).max(1),
        max_n,
        local_ok: size <= cfg.local_threshold,
        p: p.to_bits(),
    });
    if let Some(plan) = fastest_key.and_then(|k| model.fastest_plan(src, dst, k)) {
        return Ok(plan);
    }

    let mut best: Option<Plan> = None;
    let mut n = 1u32;
    loop {
        for side in ExecSide::BOTH {
            if caps.for_side(side) < n {
                continue;
            }
            let path = PathKey { src, dst, side };
            if !model.has_path(path) {
                continue;
            }
            // Local handling is only possible for a single "function" on the
            // source side (the orchestrator itself) and small objects.
            let local = n == 1 && side == ExecSide::Source && size <= cfg.local_threshold;
            let predicted_s = model.t_rep_quantile(path, size, n, local, p)?;
            let predicted = SimDuration::from_secs_f64(predicted_s);
            let slo_met = slo_rep.is_some_and(|slo| predicted <= slo);
            let candidate = Plan {
                n,
                side,
                local,
                predicted,
                slo_met,
            };
            if best.is_none_or(|b| candidate.predicted < b.predicted) {
                best = Some(candidate);
            }
            if slo_met {
                // First SLO-compliant plan is the cheapest: fewer functions
                // mean fewer API calls and less aggregate execution time.
                return Ok(candidate);
            }
        }
        if n >= max_n {
            break;
        }
        n = (n * 2).min(max_n);
    }
    let best = best.ok_or(ModelError::UnknownPath(PathKey {
        src,
        dst,
        side: ExecSide::Source,
    }))?;
    if let Some(key) = fastest_key {
        model.remember_fastest_plan(src, dst, key, best);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LocParams, PathParams};
    use cloudapi::{Cloud, RegionRegistry};
    use stats::Dist;

    fn setup() -> (PerfModel, RegionId, RegionId) {
        let regions = RegionRegistry::paper_regions();
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let dst = regions.lookup(Cloud::Azure, "eastus").unwrap();
        let mut m = PerfModel::new(8 << 20, 1500, 7);
        for r in [src, dst] {
            m.set_loc(
                r,
                LocParams {
                    invoke: Dist::normal(0.03, 0.01),
                    cold: Dist::normal(0.3, 0.1),
                    postpone: Dist::Constant(0.5),
                },
            );
        }
        // Source-side functions are twice as fast per chunk.
        m.set_path(
            PathKey {
                src,
                dst,
                side: ExecSide::Source,
            },
            PathParams::new(
                Dist::normal(0.25, 0.05),
                Dist::normal(0.15, 0.03),
                Dist::normal(0.17, 0.04),
            ),
        );
        m.set_path(
            PathKey {
                src,
                dst,
                side: ExecSide::Destination,
            },
            PathParams::new(
                Dist::normal(0.30, 0.06),
                Dist::normal(0.30, 0.06),
                Dist::normal(0.34, 0.07),
            ),
        );
        (m, src, dst)
    }

    #[test]
    fn small_object_is_handled_locally() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        let plan = generate_plan(&mut m, &cfg, src, dst, 1 << 20, None, 0.99).unwrap();
        assert_eq!(plan.n, 1);
        assert!(plan.local, "1 MB should be replicated by the orchestrator");
        assert_eq!(plan.side, ExecSide::Source);
    }

    #[test]
    fn zero_slo_returns_fastest_plan_with_parallelism() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        // 1 GiB: 128 parts; single function needs ~19 s, parallel much less.
        let plan = generate_plan(&mut m, &cfg, src, dst, 1 << 30, None, 0.99).unwrap();
        assert!(plan.n >= 16, "expected high parallelism, got {}", plan.n);
        assert!(!plan.slo_met, "a None SLO is never met");
        assert_eq!(plan.side, ExecSide::Source, "faster side must win");
    }

    #[test]
    fn loose_slo_picks_minimal_parallelism() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        // Single-function p99 for 1 GiB is ~ 0.25 + 128*0.15 + I + D ≈ 20 s.
        let plan = generate_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            Some(SimDuration::from_secs(60)),
            0.99,
        )
        .unwrap();
        assert_eq!(plan.n, 1, "loose SLO should avoid extra functions");
        assert!(plan.slo_met);
    }

    #[test]
    fn moderate_slo_picks_first_compliant_parallelism() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        let tight = generate_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            Some(SimDuration::from_secs(5)),
            0.99,
        )
        .unwrap();
        assert!(tight.slo_met, "5 s is attainable with parallelism");
        assert!(tight.n > 1 && tight.n < 128, "n = {}", tight.n);
        // A looser SLO must never pick more functions.
        let looser = generate_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            Some(SimDuration::from_secs(10)),
            0.99,
        )
        .unwrap();
        assert!(looser.n <= tight.n);
    }

    #[test]
    fn unattainable_slo_returns_fastest() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        let plan = generate_plan(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            Some(SimDuration::from_millis(1)),
            0.99,
        )
        .unwrap();
        assert!(!plan.slo_met);
        assert!(plan.n > 8, "must fall back to the fastest plan");
    }

    #[test]
    fn parallelism_never_exceeds_part_count() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        // 24 MiB = 3 parts: no point invoking more than 3 functions.
        let plan = generate_plan(&mut m, &cfg, src, dst, 24 << 20, None, 0.99).unwrap();
        assert!(plan.n <= 3);
    }

    #[test]
    fn side_choice_follows_path_speed() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        // Make destination-side functions dramatically faster.
        m.set_path(
            PathKey {
                src,
                dst,
                side: ExecSide::Destination,
            },
            PathParams::new(
                Dist::normal(0.05, 0.01),
                Dist::normal(0.02, 0.005),
                Dist::normal(0.03, 0.005),
            ),
        );
        let plan = generate_plan(&mut m, &cfg, src, dst, 256 << 20, None, 0.99).unwrap();
        assert_eq!(plan.side, ExecSide::Destination);
    }

    #[test]
    fn unprofiled_paths_error() {
        let regions = RegionRegistry::paper_regions();
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let dst = regions.lookup(Cloud::Gcp, "us-east1").unwrap();
        let mut m = PerfModel::new(8 << 20, 100, 1);
        let cfg = EngineConfig::default();
        assert!(generate_plan(&mut m, &cfg, src, dst, 1 << 20, None, 0.99).is_err());
    }
}

#[cfg(test)]
mod cap_tests {
    use super::*;
    use crate::model::{LocParams, PathParams};
    use cloudapi::{Cloud, RegionRegistry};
    use stats::Dist;

    fn setup() -> (PerfModel, RegionId, RegionId) {
        let regions = RegionRegistry::paper_regions();
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let dst = regions.lookup(Cloud::Azure, "eastus").unwrap();
        let mut m = PerfModel::new(8 << 20, 800, 17);
        for r in [src, dst] {
            m.set_loc(
                r,
                LocParams {
                    invoke: Dist::normal(0.03, 0.01),
                    cold: Dist::normal(0.3, 0.1),
                    postpone: Dist::Constant(0.0),
                },
            );
        }
        for side in ExecSide::BOTH {
            m.set_path(
                PathKey { src, dst, side },
                PathParams::new(
                    Dist::normal(0.25, 0.05),
                    Dist::normal(0.2, 0.04),
                    Dist::normal(0.22, 0.05),
                ),
            );
        }
        (m, src, dst)
    }

    #[test]
    fn caps_bound_parallelism() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        let caps = SideCaps { src: 4, dst: 4 };
        let plan =
            generate_plan_with_caps(&mut m, &cfg, src, dst, 1 << 30, None, 0.99, caps).unwrap();
        assert!(plan.n <= 4, "quota must cap parallelism, got {}", plan.n);
    }

    #[test]
    fn exhausted_side_is_skipped() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        // The source account has no concurrency left at all: every plan must
        // run at the destination.
        let caps = SideCaps { src: 0, dst: 64 };
        let plan =
            generate_plan_with_caps(&mut m, &cfg, src, dst, 256 << 20, None, 0.99, caps).unwrap();
        assert_eq!(plan.side, ExecSide::Destination);
        assert!(!plan.local);
    }

    #[test]
    fn unlimited_caps_match_default_planner() {
        let (mut m, src, dst) = setup();
        let cfg = EngineConfig::default();
        let a = generate_plan(&mut m, &cfg, src, dst, 1 << 30, None, 0.9).unwrap();
        let b = generate_plan_with_caps(
            &mut m,
            &cfg,
            src,
            dst,
            1 << 30,
            None,
            0.9,
            SideCaps::UNLIMITED,
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
