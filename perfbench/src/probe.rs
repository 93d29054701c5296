//! The planner/model probe: replays each write's public planner calls on a
//! copy of the installed model and times them one by one.
//!
//! Per write these are the service's three queries: the batcher's fastest
//! plan (`generate_plan(.., None, ..)`, which evaluates every parallelism
//! level), the SLO-bounded plan, and the mean of the chosen plan's
//! `t_rep_dist`. The copy means the simulation never sees the probe.

use areplica_core::{generate_plan, EngineConfig, PathKey, PerfModel};
use cloudsim::RegionId;
use simkernel::SimDuration;

use crate::host::Clock;
use crate::workload::{Inputs, OpKind, Source};

/// The default rule safety margin the service divides SLO budgets by.
const SAFETY_MARGIN: f64 = 1.25;

/// Per-call host times, in microseconds.
#[derive(Debug, Default)]
pub struct ProbeTimes {
    pub fastest_us: Vec<f64>,
    pub slo_us: Vec<f64>,
    pub dist_us: Vec<f64>,
}

/// Probes the first `limit` PUTs of the workload.
pub fn probe(
    model: &PerfModel,
    inputs: &Inputs,
    regions: &[(RegionId, RegionId)],
    clock: &Clock,
    limit: usize,
) -> ProbeTimes {
    let puts: Vec<(usize, u64)> = match &inputs.source {
        Source::Trace(t) => t
            .records
            .iter()
            .filter_map(|r| match r.op {
                areplica_traces::TraceOp::Put { size } => Some((0, size)),
                _ => None,
            })
            .take(limit)
            .collect(),
        Source::Ops(ops) => ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Put { size } => Some((o.rule, size)),
                _ => None,
            })
            .take(limit)
            .collect(),
    };
    let mut model = model.clone();
    let cfg = EngineConfig::default();
    let mut out = ProbeTimes::default();
    for (rule, size) in puts {
        let spec = &inputs.rules[rule];
        let (src, dst) = regions[rule];
        let p = spec.percentile;
        let notif = SimDuration::from_secs_f64(model.notif_delay_quantile(src, 0.5));
        let budget = spec.slo.saturating_sub(notif).mul_f64(1.0 / SAFETY_MARGIN);

        let t0 = clock.now();
        let fastest = generate_plan(&mut model, &cfg, src, dst, size, None, p)
            .expect("the workload's paths are profiled");
        let t1 = clock.now();
        let plan = generate_plan(&mut model, &cfg, src, dst, size, Some(budget), p)
            .expect("the workload's paths are profiled");
        let t2 = clock.now();
        let path = PathKey {
            src,
            dst,
            side: plan.side,
        };
        let mean = model
            .t_rep_dist(path, size, plan.n, plan.local)
            .expect("the plan's path is profiled")
            .mean();
        let t3 = clock.now();
        std::hint::black_box((fastest, mean));
        out.fastest_us.push((t1 - t0) * 1e6);
        out.slo_us.push((t2 - t1) * 1e6);
        out.dist_us.push((t3 - t2) * 1e6);
    }
    out
}
