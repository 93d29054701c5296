//! The four benchmark workloads: their seeded inputs, set-up, replay and
//! the state read back from outside the program after a run.
//!
//! Arrivals are open-loop in simulated time: every operation is scheduled
//! up front at its generated instant and never waits on a completion.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use areplica_core::changelog;
use areplica_core::{build_model_for, AReplica, AReplicaBuilder, PerfModel, ReplicationRule};
use areplica_traces::{generate, sample_size, ReplayConfig, SynthConfig, Trace};
use cloudsim::objstore::StoreError;
use cloudsim::{region_shard_map, wan_lookahead, world, Cloud, CloudSim, RegionId, RegionRegistry};
use cloudsim::{ShardLink, World};
use pricing::CostCategory;
use rand::Rng;
use simkernel::rng::derive_rng;
use simkernel::{run_sharded_stateful, RunStats, ShardConfig, SimDuration, SimTime};

use crate::host::{cpu_now, Clock, Spans};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "trace_replay",
    "bulk_fanout",
    "hot_overwrite",
    "sharded_replay",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TraceReplay,
    BulkFanout,
    HotOverwrite,
    ShardedReplay,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "trace_replay" => Kind::TraceReplay,
            "bulk_fanout" => Kind::BulkFanout,
            "hot_overwrite" => Kind::HotOverwrite,
            "sharded_replay" => Kind::ShardedReplay,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Workload sizes. Every input below is a pure function of these and the seed.
// ---------------------------------------------------------------------------

/// fig23's busy IBM-COS-shaped trace at its scale-0.02 rate floor (8 ops/s),
/// four hours long: the per-minute rate is an AR(1) process with bursts, so
/// shorter segments differ too much from seed to seed, and four hours give
/// p99.99 at least ten samples beyond it.
const TRACE_MINUTES: u64 = 240;
const TRACE_OPS_PER_SEC: f64 = 8.0;
/// The sharded replay's segment (same shape, shorter).
const SHARDED_MINUTES: u64 = 60;
const SHARDS: usize = 2;

/// Multi-GB objects per fig16 pair, and their size range.
const BULK_PER_PAIR: u64 = 16;
const BULK_MIN_GB: u64 = 1;
const BULK_MAX_GB: u64 = 4;
/// Arrival spacing on one pair; pairs start staggered within it.
const BULK_SPACING_S: u64 = 30;

/// hot_overwrite's key space and length. Its writes are
/// `SynthConfig::ibm_cos_like`'s (mean rate, Zipf(0.9) popularity, 5 %
/// deletes, size mixture, and the 16 MB cap on the hottest 1 % of keys)
/// except that the rate is flat: the generator's AR(1) rate and bursts make
/// ten-minute segments differ fourfold in volume from seed to seed, and
/// cost per GB and delay follow the rate. Cut to 300 keys, its 20 writes/s
/// put the three capped keys at about 105, 65 and 50 updates/min, the band
/// where fig22's no-batching replication of a 100 MB object saturates
/// (50-100 updates/min).
const HOT_KEYS: u64 = 300;
const HOT_MINUTES: u64 = 20;
/// Write-once objects the COPY and concat changelogs read from.
/// `changelog::user_copy` panics when its source is overwritten between its
/// HEAD and its copy, so copy sources are never overwritten.
const HOT_TEMPLATES: usize = 16;
/// The generated writes start here, after the templates are written.
const HOT_START_NS: u64 = 10_000_000_000;
/// Consumer read rate, and the shares of generated PUTs turned into
/// server-side COPY and concat changelogs. No trace gives these; they are
/// chosen so each path runs several hundred times a run while plain PUTs
/// stay the bulk of the traffic.
const HOT_READS_PER_SEC: f64 = 5.0;
const HOT_COPY_SHARE: f64 = 0.10;
const HOT_CONCAT_SHARE: f64 = 0.05;

/// The fig16 cross-cloud pairs. Pairs that share a source region write
/// distinct key names: the engine's task id is `key#seq` with no bucket, so
/// two rules whose buckets share a region and write the same key name at the
/// same sequence number collide on one task row and corrupt a replica.
const BULK_PAIRS: [(Site, Site); 7] = [
    ((Cloud::Aws, "us-east-1"), (Cloud::Aws, "ca-central-1")),
    ((Cloud::Aws, "us-east-1"), (Cloud::Azure, "eastus")),
    ((Cloud::Aws, "us-east-1"), (Cloud::Gcp, "asia-northeast1")),
    ((Cloud::Azure, "eastus"), (Cloud::Aws, "ap-northeast-1")),
    ((Cloud::Azure, "eastus"), (Cloud::Azure, "uksouth")),
    ((Cloud::Gcp, "us-east1"), (Cloud::Azure, "uksouth")),
    ((Cloud::Gcp, "us-east1"), (Cloud::Gcp, "asia-northeast1")),
];

/// A cloud region by provider and name.
type Site = (Cloud, &'static str);

/// One replication rule of a workload.
#[derive(Debug, Clone)]
pub struct RuleSpec {
    pub src: Site,
    pub dst: Site,
    pub src_bucket: String,
    pub dst_bucket: String,
    pub slo: SimDuration,
    pub percentile: f64,
}

/// A user operation on a rule's source bucket.
#[derive(Debug, Clone)]
pub enum OpKind {
    Put {
        size: u64,
    },
    /// Server-side copy of another key (a COPY changelog).
    Copy {
        from: String,
    },
    /// Server-side concatenation of other keys (a concat changelog).
    Concat {
        from: Vec<String>,
    },
    Delete,
    /// A destination-side consumer read through `read_with_fallback`.
    Read,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub at: SimTime,
    pub rule: usize,
    pub key: String,
    pub kind: OpKind,
}

/// What a workload feeds the simulation.
pub enum Source {
    /// A write trace replayed by `areplica_traces` onto rule 0.
    Trace(Trace),
    /// Operations scheduled by the benchmark.
    Ops(Vec<Op>),
}

/// Everything generated from the seed before any simulator exists.
pub struct Inputs {
    pub kind: Kind,
    pub rules: Vec<RuleSpec>,
    pub source: Source,
    pub world_seed: u64,
    pub concurrency_limit: u32,
}

impl Inputs {
    /// Source writes (PUT/DELETE/COPY/concat) and consumer reads.
    pub fn counts(&self) -> (u64, u64) {
        match &self.source {
            Source::Trace(t) => (t.len() as u64, 0),
            Source::Ops(ops) => {
                let reads = ops
                    .iter()
                    .filter(|o| matches!(o.kind, OpKind::Read))
                    .count() as u64;
                (ops.len() as u64 - reads, reads)
            }
        }
    }

    /// Every `(rule, key)` the workload writes, with its number of writes.
    pub fn writes_per_key(&self) -> BTreeMap<(usize, String), u64> {
        let mut out = BTreeMap::new();
        let keys: Box<dyn Iterator<Item = (usize, &String)>> = match &self.source {
            Source::Trace(t) => Box::new(t.records.iter().map(|r| (0, &r.key))),
            Source::Ops(ops) => Box::new(
                ops.iter()
                    .filter(|o| !matches!(o.kind, OpKind::Read))
                    .map(|o| (o.rule, &o.key)),
            ),
        };
        for (rule, key) in keys {
            *out.entry((rule, key.clone())).or_insert(0) += 1;
        }
        out
    }

    /// One line describing the workload's size, for the result's host facts.
    pub fn size_line(&self) -> String {
        let (writes, reads) = self.counts();
        let base = format!("{writes} writes, {reads} reads, {} rules", self.rules.len());
        match self.kind {
            Kind::TraceReplay => format!(
                "{base}; fig23 segment {TRACE_MINUTES} min at {TRACE_OPS_PER_SEC} ops/s mean"
            ),
            Kind::ShardedReplay => format!(
                "{base}; fig23 segment {SHARDED_MINUTES} min at {TRACE_OPS_PER_SEC} ops/s mean, {SHARDS} shards"
            ),
            Kind::BulkFanout => format!(
                "{base}; {BULK_PER_PAIR} objects of {BULK_MIN_GB}-{BULK_MAX_GB} GB per fig16 pair"
            ),
            Kind::HotOverwrite => format!(
                "{base}; IBM-COS generator over {HOT_KEYS} keys, {HOT_MINUTES} min, + {HOT_READS_PER_SEC} reads/s"
            ),
        }
    }

    /// Total bytes the workload writes at the source, in GB (10^9 bytes).
    /// COPY and concat versions count at the size they produce.
    pub fn gb_written(&self) -> f64 {
        match &self.source {
            Source::Trace(t) => t.put_bytes() as f64 / 1e9,
            Source::Ops(ops) => {
                // Replay sizes forward: copies and concats take their
                // sources' current sizes.
                let mut cur: BTreeMap<(usize, &str), u64> = BTreeMap::new();
                let mut total = 0u64;
                for op in ops {
                    let size = match &op.kind {
                        OpKind::Put { size } => *size,
                        OpKind::Copy { from } => {
                            cur.get(&(op.rule, from.as_str())).copied().unwrap_or(0)
                        }
                        OpKind::Concat { from } => from
                            .iter()
                            .map(|k| cur.get(&(op.rule, k.as_str())).copied().unwrap_or(0))
                            .sum(),
                        OpKind::Delete => {
                            cur.remove(&(op.rule, op.key.as_str()));
                            continue;
                        }
                        OpKind::Read => continue,
                    };
                    cur.insert((op.rule, op.key.as_str()), size);
                    total += size;
                }
                total as f64 / 1e9
            }
        }
    }
}

fn trace_rule() -> RuleSpec {
    RuleSpec {
        src: (Cloud::Aws, "us-east-1"),
        dst: (Cloud::Aws, "us-east-2"),
        src_bucket: "trace-bucket".into(),
        dst_bucket: "trace-mirror".into(),
        slo: SimDuration::from_secs(10),
        percentile: 0.9999,
    }
}

fn busy_trace(seed: u64, minutes: u64) -> Trace {
    let cfg = SynthConfig {
        duration: SimDuration::from_mins(minutes),
        mean_ops_per_sec: TRACE_OPS_PER_SEC,
        ..SynthConfig::ibm_cos_like()
    };
    generate(&cfg, seed ^ 0x23).writes_only()
}

/// `n` sizes at evenly spaced quantiles of the size mixture, each capped at
/// `cap`. The quantiles come from a fixed reference sample, so every seed
/// sees the same sizes and only their assignment to keys varies.
fn mixture_quantiles(
    mixture: &[areplica_traces::synth::SizeComponent],
    n: usize,
    cap: u64,
) -> Vec<u64> {
    const REFERENCE: usize = 20_000;
    let mut rng = derive_rng(0, "perfbench:size-quantiles");
    let mut reference: Vec<u64> = (0..REFERENCE)
        .map(|_| sample_size(mixture, &mut rng))
        .collect();
    reference.sort_unstable();
    (0..n)
        .map(|i| reference[(2 * i + 1) * REFERENCE / (2 * n)].min(cap))
        .collect()
}

/// Fisher-Yates shuffle driven by the workload's seeded stream.
fn shuffle<T>(items: &mut [T], rng: &mut rand::rngs::StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// hot_overwrite's writes: the IBM-COS generator over a few hundred keys.
/// A seeded share of its PUTs become COPY and concat changelogs of the
/// write-once templates, and consumers read at `HOT_READS_PER_SEC`, each
/// read aimed at the key of a uniformly drawn earlier write, so reads follow
/// the keys' write popularity.
fn hot_ops(seed: u64) -> Vec<Op> {
    let cfg = SynthConfig {
        duration: SimDuration::from_mins(HOT_MINUTES),
        key_space: HOT_KEYS,
        rate_sigma: 0.0,
        burst_prob: 0.0,
        ..SynthConfig::ibm_cos_like()
    };
    let trace = generate(&cfg, seed ^ 0x22).writes_only();
    let mut rng = derive_rng(seed, "perfbench:hot_overwrite");
    let template = |i: usize| format!("tpl-{i:02}");
    // Templates are sized like the generator's hot keys: fixed quantiles of
    // the IBM mixture under its hot-key cap.
    let cap = cfg.hot_key_size_cap.unwrap_or(u64::MAX);
    let tpl_sizes = mixture_quantiles(&cfg.size_mixture, HOT_TEMPLATES, cap);
    // Concat parts are the smaller half of the templates.
    let mut by_size: Vec<usize> = (0..HOT_TEMPLATES).collect();
    by_size.sort_by_key(|&i| (tpl_sizes[i], i));
    let small = &by_size[..HOT_TEMPLATES / 2];

    // The templates are written once in the first five seconds.
    let step = 5_000_000_000 / HOT_TEMPLATES as u64;
    let mut ops: Vec<Op> = (0..HOT_TEMPLATES)
        .map(|i| Op {
            at: SimTime::from_nanos(i as u64 * step),
            rule: 0,
            key: template(i),
            kind: OpKind::Put { size: tpl_sizes[i] },
        })
        .collect();
    let at = |ms: u64| SimTime::from_nanos(HOT_START_NS + ms * 1_000_000);
    for r in &trace.records {
        let kind = match r.op {
            areplica_traces::TraceOp::Put { size } => {
                let u: f64 = rng.gen_range(0.0f64..1.0);
                if u < HOT_COPY_SHARE {
                    OpKind::Copy {
                        from: template(rng.gen_range(0..HOT_TEMPLATES)),
                    }
                } else if u < HOT_COPY_SHARE + HOT_CONCAT_SHARE {
                    let a = small[rng.gen_range(0..small.len())];
                    let b = small[rng.gen_range(0..small.len())];
                    OpKind::Concat {
                        from: vec![template(a), template(b)],
                    }
                } else {
                    OpKind::Put { size }
                }
            }
            areplica_traces::TraceOp::Delete => OpKind::Delete,
            _ => continue,
        };
        ops.push(Op {
            at: at(r.at.0),
            rule: 0,
            key: r.key.clone(),
            kind,
        });
    }
    // Open-loop Poisson reads over the generated writes' span.
    let end = at(HOT_MINUTES * 60_000).as_nanos() as f64;
    let mut t = HOT_START_NS as f64;
    loop {
        let u: f64 = rng.gen_range(1e-12f64..1.0);
        t += -u.ln() / HOT_READS_PER_SEC * 1e9;
        if t >= end {
            break;
        }
        let read_at = SimTime::from_nanos(t as u64);
        let before = trace.records.partition_point(|r| at(r.at.0) < read_at);
        if before == 0 {
            continue;
        }
        ops.push(Op {
            at: read_at,
            rule: 0,
            key: trace.records[rng.gen_range(0..before)].key.clone(),
            kind: OpKind::Read,
        });
    }
    ops.sort_by_key(|o| o.at);
    ops
}

fn bulk_ops(seed: u64) -> Vec<Op> {
    let mut rng = derive_rng(seed, "perfbench:bulk_fanout");
    // Evenly spaced sizes over the range; the seed deals them out.
    let count = BULK_PER_PAIR as usize * BULK_PAIRS.len();
    let (lo, hi) = (BULK_MIN_GB << 30, BULK_MAX_GB << 30);
    let mut sizes: Vec<u64> = (0..count as u64)
        .map(|j| lo + (hi - lo) * (2 * j + 1) / (2 * count as u64))
        .collect();
    shuffle(&mut sizes, &mut rng);
    let stagger = BULK_SPACING_S * 1_000_000_000 / BULK_PAIRS.len() as u64;
    let mut ops = Vec::new();
    for k in 0..BULK_PER_PAIR {
        for pair in 0..BULK_PAIRS.len() {
            // Keys are distinct across pairs: see `BULK_PAIRS`.
            ops.push(Op {
                at: SimTime::from_nanos(k * BULK_SPACING_S * 1_000_000_000 + pair as u64 * stagger),
                rule: pair,
                key: format!("bulk-{pair}-{k:03}"),
                kind: OpKind::Put {
                    size: sizes[ops.len()],
                },
            });
        }
    }
    ops.sort_by_key(|o| o.at);
    ops
}

/// Generates a workload's inputs from its seed.
pub fn generate_inputs(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::TraceReplay | Kind::ShardedReplay => {
            let minutes = if kind == Kind::TraceReplay {
                TRACE_MINUTES
            } else {
                SHARDED_MINUTES
            };
            Inputs {
                kind,
                rules: vec![trace_rule()],
                source: Source::Trace(busy_trace(seed, minutes)),
                world_seed: seed.wrapping_add(0x2311),
                concurrency_limit: 2000,
            }
        }
        Kind::BulkFanout => Inputs {
            kind,
            rules: BULK_PAIRS
                .iter()
                .enumerate()
                .map(|(i, &(src, dst))| RuleSpec {
                    src,
                    dst,
                    src_bucket: format!("bulk-src-{i}"),
                    dst_bucket: format!("bulk-dst-{i}"),
                    slo: SimDuration::from_secs(20),
                    percentile: 0.99,
                })
                .collect(),
            source: Source::Ops(bulk_ops(seed)),
            world_seed: seed.wrapping_add(0x1600),
            concurrency_limit: 1024,
        },
        Kind::HotOverwrite => Inputs {
            kind,
            rules: vec![RuleSpec {
                src: (Cloud::Aws, "us-east-1"),
                dst: (Cloud::Aws, "us-east-2"),
                src_bucket: "hot-src".into(),
                dst_bucket: "hot-dst".into(),
                slo: SimDuration::from_secs(30),
                percentile: 0.99,
            }],
            source: Source::Ops(hot_ops(seed)),
            world_seed: seed.wrapping_add(0x2200),
            concurrency_limit: 1000,
        },
    }
}

fn region(regions: &RegionRegistry, at: Site) -> RegionId {
    regions
        .lookup(at.0, at.1)
        .unwrap_or_else(|| panic!("paper region {at:?}"))
}

/// Profiles every rule's pair on a sandbox of the paper world.
pub fn build_model(inputs: &Inputs) -> PerfModel {
    let w = World::paper(inputs.world_seed);
    let pairs: Vec<(RegionId, RegionId)> = inputs
        .rules
        .iter()
        .map(|r| (region(&w.regions, r.src), region(&w.regions, r.dst)))
        .collect();
    build_model_for(
        &w.regions,
        &w.params,
        &w.catalog,
        &pairs,
        &bench::runners::experiment_profiler(),
    )
    .expect("profiling the paper regions succeeds")
}

/// Versions the source wrote and what consumers read, recorded as the
/// simulation runs.
#[derive(Debug, Default)]
pub struct OpLog {
    /// ETags the source produced, per `(rule, key)`.
    pub written: BTreeMap<(usize, String), BTreeSet<u64>>,
    /// When the key came to hold a version (`true`) or was deleted
    /// (`false`) at the source, in simulated-time order. A COPY or concat
    /// version is logged when its writer learns its ETag, a little after
    /// it lands.
    pub presence: BTreeMap<(usize, String), Vec<(SimTime, bool)>>,
    /// Consumer reads that returned a version, with that version.
    pub reads: Vec<(usize, String, u64)>,
    /// Consumer reads that found the key at neither replica, with the
    /// simulated times the read started and ended.
    pub absent_reads: Vec<(usize, String, SimTime, SimTime)>,
    /// Consumer reads that failed otherwise, after their retries.
    pub read_failures: Vec<(usize, String, String)>,
    /// COPY/concat requests the changelog helper refused up front.
    pub refused: Vec<(usize, String, String)>,
}

pub type Log = Rc<RefCell<OpLog>>;

/// A simulator with the service installed and the workload scheduled.
pub struct Installed {
    pub sim: CloudSim,
    pub service: AReplica,
    pub regions: Vec<(RegionId, RegionId)>,
    pub log: Log,
}

fn new_world(inputs: &Inputs, seed: u64) -> CloudSim {
    let mut sim = World::paper_sim(seed);
    for cloud in [Cloud::Aws, Cloud::Azure, Cloud::Gcp] {
        sim.world.params.cloud_mut(cloud).concurrency_limit = inputs.concurrency_limit;
    }
    sim
}

fn install_service(
    sim: &mut CloudSim,
    inputs: &Inputs,
    model: PerfModel,
) -> (AReplica, Vec<(RegionId, RegionId)>) {
    let mut builder = AReplicaBuilder::new();
    let mut regions = Vec::new();
    for r in &inputs.rules {
        let (src, dst) = (
            region(&sim.world.regions, r.src),
            region(&sim.world.regions, r.dst),
        );
        regions.push((src, dst));
        builder = builder.rule(
            ReplicationRule::new(src, r.src_bucket.clone(), dst, r.dst_bucket.clone())
                .with_slo(r.slo)
                .with_percentile(r.percentile),
        );
    }
    (builder.model(model).install(sim), regions)
}

/// The `(source, destination)` regions of every rule.
pub fn rule_regions(inputs: &Inputs) -> Vec<(RegionId, RegionId)> {
    let regions = RegionRegistry::paper_regions();
    inputs
        .rules
        .iter()
        .map(|r| (region(&regions, r.src), region(&regions, r.dst)))
        .collect()
}

/// Builds the world and installs the service (the `install` phase).
/// `simtrace` switches the simulator's own tracer on first.
pub fn install(inputs: &Inputs, model: PerfModel, simtrace: bool) -> Installed {
    let mut sim = new_world(inputs, inputs.world_seed);
    sim.world.trace.set_enabled(simtrace);
    let (service, regions) = install_service(&mut sim, inputs, model);
    Installed {
        sim,
        service,
        regions,
        log: Log::default(),
    }
}

/// A consumer read: destination first, falling back to the source. A read
/// that races an overwrite (the version changed between HEAD and GET)
/// retries, as a real consumer would.
fn consumer_read(
    sim: &mut CloudSim,
    service: AReplica,
    rule: usize,
    key: String,
    log: Log,
    tries: u32,
) {
    let svc = service.clone();
    let started = sim.now();
    service.read_with_fallback(sim, rule, key.clone(), move |sim, res| match res {
        Ok((_, etag, _)) => log.borrow_mut().reads.push((rule, key, etag.0)),
        Err(StoreError::NoSuchKey) => {
            let now = sim.now();
            log.borrow_mut()
                .absent_reads
                .push((rule, key, started, now));
        }
        Err(StoreError::PreconditionFailed { .. }) if tries > 1 => {
            sim.schedule_in(SimDuration::from_millis(50), move |sim| {
                consumer_read(sim, svc, rule, key, log, tries - 1);
            });
        }
        Err(e) => log
            .borrow_mut()
            .read_failures
            .push((rule, key, format!("{e:?}"))),
    });
}

/// Schedules the workload's operations (the `schedule` phase).
pub fn schedule(inst: &mut Installed, inputs: &Inputs) {
    match &inputs.source {
        Source::Trace(trace) => {
            let (src, _) = inst.regions[0];
            areplica_traces::schedule(
                &mut inst.sim,
                trace,
                src,
                &inputs.rules[0].src_bucket,
                &ReplayConfig::default(),
            );
        }
        Source::Ops(ops) => {
            for op in ops.iter().cloned() {
                let (src, _) = inst.regions[op.rule];
                let bucket = inputs.rules[op.rule].src_bucket.clone();
                let log = inst.log.clone();
                let service = inst.service.clone();
                inst.sim.schedule_at(op.at, move |sim| {
                    apply_op(sim, service, src, bucket, op, log);
                });
            }
        }
    }
}

fn apply_op(
    sim: &mut CloudSim,
    service: AReplica,
    src: RegionId,
    bucket: String,
    op: Op,
    log: Log,
) {
    let Op {
        rule, key, kind, ..
    } = op;
    let record = move |log: &Log, at: SimTime, key: String, etag: u64| {
        let mut log = log.borrow_mut();
        let k = (rule, key);
        log.presence.entry(k.clone()).or_default().push((at, true));
        log.written.entry(k).or_default().insert(etag);
    };
    match kind {
        OpKind::Put { size } => {
            let applied =
                world::user_put(sim, src, &bucket, &key, size).expect("source bucket exists");
            record(&log, sim.now(), key, applied.etag.0);
        }
        OpKind::Delete => {
            // A key whose COPY or concat has not landed yet is absent, and
            // deleting it does nothing, as in `areplica_traces::schedule`.
            if world::user_delete(sim, src, &bucket, &key).is_ok() {
                let at = sim.now();
                log.borrow_mut()
                    .presence
                    .entry((rule, key))
                    .or_default()
                    .push((at, false));
            }
        }
        OpKind::Copy { from } => {
            let log2 = log.clone();
            let k2 = key.clone();
            if let Err(e) =
                changelog::user_copy(sim, src, bucket, from, key.clone(), move |sim, etag| {
                    record(&log2, sim.now(), k2, etag.0)
                })
            {
                log.borrow_mut().refused.push((rule, key, format!("{e:?}")));
            }
        }
        OpKind::Concat { from } => {
            let log2 = log.clone();
            let k2 = key.clone();
            if let Err(e) =
                changelog::user_concat(sim, src, bucket, from, key.clone(), move |sim, etag| {
                    record(&log2, sim.now(), k2, etag.0)
                })
            {
                log.borrow_mut().refused.push((rule, key, format!("{e:?}")));
            }
        }
        OpKind::Read => consumer_read(sim, service, rule, key, log, 4),
    }
}

/// Runs the simulation to quiescence, one `Sim::run_until` call per
/// simulated minute (each a child span when tracing).
pub fn replay(sim: &mut CloudSim, clock: &Clock, spans: &mut Spans) {
    let minute = SimDuration::from_secs(60);
    while let Some(next) = sim.next_event_time() {
        let m = next.as_nanos() / minute.as_nanos();
        let horizon = SimTime::from_nanos((m + 1) * minute.as_nanos() - 1);
        spans.enter(clock, format!("sim.minute.{m:03}"));
        sim.run_until(horizon);
        spans.exit(clock);
    }
}

/// Deterministic per-world readings taken after a replay.
#[derive(Debug, Clone, Default)]
pub struct WorldReadings {
    pub delays: Vec<f64>,
    pub completions: u64,
    pub within_slo: u64,
    pub batched_skips: u64,
    pub changelog_applied: u64,
    pub slo_previolated: u64,
    pub read_fallbacks: u64,
    pub aborted_retries: u64,
    pub model_adjustments: u64,
    pub funcs: u64,
    pub local: u64,
    pub cached_max_dists: u64,
    pub cached_std_maxima: u64,
    /// attempts, cold starts, warm starts, throttled, retries, timeouts.
    pub faas: [u64; 6],
    pub cost_usd: [f64; 6],
    pub run: RunStats,
}

impl WorldReadings {
    /// Adds another shard's readings (peak depth takes the maximum).
    pub fn merge(&mut self, o: &WorldReadings) {
        self.delays.extend_from_slice(&o.delays);
        self.completions += o.completions;
        self.within_slo += o.within_slo;
        self.batched_skips += o.batched_skips;
        self.changelog_applied += o.changelog_applied;
        self.slo_previolated += o.slo_previolated;
        self.read_fallbacks += o.read_fallbacks;
        self.aborted_retries += o.aborted_retries;
        self.model_adjustments += o.model_adjustments;
        self.funcs += o.funcs;
        self.local += o.local;
        self.cached_max_dists += o.cached_max_dists;
        self.cached_std_maxima += o.cached_std_maxima;
        for i in 0..6 {
            self.faas[i] += o.faas[i];
            self.cost_usd[i] += o.cost_usd[i];
        }
        self.run.executed += o.run.executed;
        self.run.cancelled += o.run.cancelled;
        self.run.compacted += o.run.compacted;
        self.run.compactions += o.run.compactions;
        self.run.peak_live_depth = self.run.peak_live_depth.max(o.run.peak_live_depth);
    }
}

/// Ledger groups in the order of [`WorldReadings::cost_usd`].
pub const COST_FIELDS: [&str; 6] = [
    "egress",
    "function",
    "db",
    "storage_requests",
    "workflow",
    "total",
];

/// Reads the service's and world's counters through their public accessors.
pub fn read_world(sim: &CloudSim, service: &AReplica, slo: SimDuration) -> WorldReadings {
    let m = service.metrics();
    let mut delays: Vec<f64> = m
        .completions
        .iter()
        .map(|c| c.delay().as_secs_f64())
        .collect();
    delays.sort_by(f64::total_cmp);
    let model = service.model();
    let f = &sim.world.faas.stats;
    let l = &sim.world.ledger;
    let usd = |cats: &[CostCategory]| {
        cats.iter()
            .map(|&c| l.category_total(c).as_dollars())
            .sum::<f64>()
    };
    WorldReadings {
        completions: m.completions.len() as u64,
        within_slo: m.completions.iter().filter(|c| c.delay() <= slo).count() as u64,
        delays,
        batched_skips: m.batched_skips,
        changelog_applied: m.changelog_applied,
        slo_previolated: m.slo_previolated,
        read_fallbacks: m.read_fallbacks,
        aborted_retries: m.aborted_retries,
        model_adjustments: service.model_adjustments(),
        funcs: m.completions.iter().map(|c| u64::from(c.n_funcs)).sum(),
        local: m.completions.iter().filter(|c| c.n_funcs == 0).count() as u64,
        cached_max_dists: model.cached_max_dists() as u64,
        cached_std_maxima: model.cached_std_maxima() as u64,
        faas: [
            f.attempts,
            f.cold_starts,
            f.warm_starts,
            f.throttled,
            f.retries,
            f.timeouts,
        ],
        cost_usd: [
            usd(&[CostCategory::Egress]),
            usd(&[
                CostCategory::FunctionCompute,
                CostCategory::FunctionRequests,
            ]),
            usd(&[CostCategory::DbOps]),
            usd(&[CostCategory::StorageRequests]),
            usd(&[CostCategory::Workflow]),
            l.grand_total().as_dollars(),
        ],
        run: sim.stats(),
    }
}

/// Host time of one sharded run's phases, and its synchronisation counts.
#[derive(Debug, Clone, Default)]
pub struct ShardedOutcome {
    /// CPU seconds of the shards' profiling and install + scheduling (on the
    /// threaded driver, the slowest shard's; the process clock then counts
    /// both shards' concurrent work, so only the sequential figures are
    /// reported).
    pub build_model_s: f64,
    pub install_s: f64,
    /// CPU and wall-clock seconds of the coordinator's round loop.
    pub replay_s: f64,
    pub replay_wall_s: f64,
    pub rounds: u64,
    pub messages: u64,
    pub readings: WorldReadings,
    pub oracle: crate::oracle::OracleReport,
}

/// Shard `id`'s world with its service installed and its slice of the trace
/// scheduled, and the host seconds profiling and install + scheduling took.
/// The cross-shard link is the caller's to add: nothing reads it before the
/// simulation runs.
fn build_shard(
    inputs: &Inputs,
    id: usize,
    clock: &Clock,
    simtrace: bool,
) -> (CloudSim, AReplica, Vec<(RegionId, RegionId)>, f64, f64) {
    let Source::Trace(trace) = &inputs.source else {
        unreachable!("the sharded workload replays a trace")
    };
    // Each shard's world draws from its own stream, as fig23 does.
    let mut sim = new_world(inputs, inputs.world_seed.wrapping_add((id as u64) << 20));
    sim.world.trace.set_enabled(simtrace);
    let (model, build_model_s) = clock.cpu_time(|| build_model(inputs));
    let ((service, regions), install_s) = clock.cpu_time(|| {
        let (service, regions) = install_service(&mut sim, inputs, model);
        areplica_traces::schedule_shard(
            &mut sim,
            trace,
            regions[0].0,
            &inputs.rules[0].src_bucket,
            &ReplayConfig::default(),
            id,
            SHARDS,
        );
        (service, regions)
    });
    (sim, service, regions, build_model_s, install_s)
}

/// Sets every shard up as [`run_sharded`] does on its calling thread, then
/// drops them: extra set-up samples. Returns the summed profiling and
/// install + scheduling seconds.
pub fn setup_shards_only(inputs: &Inputs, clock: &Clock) -> (f64, f64) {
    (0..SHARDS).fold((0.0, 0.0), |(b, i), id| {
        let (_, _, _, build_model_s, install_s) = build_shard(inputs, id, clock, false);
        (b + build_model_s, i + install_s)
    })
}

/// Builds, replays and reads back the key-partitioned replay, on worker
/// threads (`parallel`) or on the calling thread. Profiling, install and
/// scheduling run inside each shard's build (a model holds `Rc` caches and
/// stays on its thread); the replay phase is the coordinator's round loop.
pub fn run_sharded(
    inputs: &Inputs,
    clock: &Clock,
    simtrace: bool,
    parallel: bool,
) -> ShardedOutcome {
    let regions = RegionRegistry::paper_regions();
    let map = region_shard_map(&regions, SHARDS);
    let cfg = ShardConfig::new(wan_lookahead(&regions, &map)).with_parallel(parallel);
    let written = inputs.writes_per_key();
    let slo = inputs.rules[0].slo;
    // Per-phase host times the shards report: profiling, install + schedule
    // (summed over shards, or their maximum when the shards build in
    // parallel), then the last build's end and the first finish's start on
    // the wall-clock and on the CPU clock.
    let combine = |a: f64, b: f64| if parallel { a.max(b) } else { a + b };
    let marks = std::sync::Mutex::new([0.0f64, 0.0, 0.0, f64::INFINITY, 0.0, f64::INFINITY]);
    let run = run_sharded_stateful(
        SHARDS,
        &cfg,
        |id, outbox| {
            let (mut sim, service, regions, build_model_s, install_s) =
                build_shard(inputs, id, clock, simtrace);
            sim.world.shard = Some(ShardLink {
                id,
                map: Rc::new(map.clone()),
                outbox,
            });
            let (done, done_cpu) = (clock.now(), cpu_now());
            let mut m = marks.lock().expect("no worker panicked holding the marks");
            m[0] = combine(m[0], build_model_s);
            m[1] = combine(m[1], install_s);
            m[2] = m[2].max(done);
            m[4] = m[4].max(done_cpu);
            drop(m);
            (sim, (service, regions))
        },
        cloudsim::deliver_remote_put,
        |id, sim, (service, regions)| {
            let (started, started_cpu) = (clock.now(), cpu_now());
            {
                let mut m = marks.lock().expect("no worker panicked holding the marks");
                m[3] = m[3].min(started);
                m[5] = m[5].min(started_cpu);
            }
            let owned: BTreeMap<(usize, String), u64> = written
                .iter()
                .filter(|((_, k), _)| cloudsim::key_shard(k, SHARDS) == id)
                .map(|(k, n)| (k.clone(), *n))
                .collect();
            let readings = read_world(&sim, &service, slo);
            let oracle = crate::oracle::check(&sim, inputs, &regions, &owned, &OpLog::default());
            (readings, oracle)
        },
    );
    let [build_model_s, install_s, built, finished, built_cpu, finished_cpu] =
        marks.into_inner().expect("workers joined");
    let mut out = ShardedOutcome {
        build_model_s,
        install_s,
        replay_s: finished_cpu - built_cpu,
        replay_wall_s: finished - built,
        rounds: run.rounds,
        messages: run.messages,
        ..ShardedOutcome::default()
    };
    for (readings, oracle) in &run.results {
        out.readings.merge(readings);
        out.oracle.merge(oracle);
    }
    out.readings.delays.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for kind in [Kind::HotOverwrite, Kind::BulkFanout] {
            let a = generate_inputs(kind, 7);
            let b = generate_inputs(kind, 7);
            let c = generate_inputs(kind, 8);
            let Source::Ops(a) = a.source else { panic!() };
            let Source::Ops(b) = b.source else { panic!() };
            let Source::Ops(c) = c.source else { panic!() };
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_ne!(format!("{a:?}"), format!("{c:?}"));
        }
    }
}
