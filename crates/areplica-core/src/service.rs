//! The AReplica service: event listeners, orchestrator functions, and the
//! glue between batching, locking, changelog propagation, planning, the
//! engine, and the online logger (Figure 10's architecture).
//!
//! Flow per object event:
//!
//! 1. the bucket notification invokes the event listener;
//! 2. SLO-bounded batching decides whether to replicate now or buffer
//!    (Algorithm 4);
//! 3. an orchestrator function at the source acquires the per-object
//!    replication lock (Algorithm 2);
//! 4. the orchestrator consults the changelog (§5.4) and otherwise asks the
//!    strategy planner for an SLO-compliant plan (Algorithm 3);
//! 5. the engine executes the plan (Algorithm 1);
//! 6. on completion the lock is released, pending versions re-trigger, the
//!    delay is recorded, and the logger updates the model.
//!
//! The service is generic over any [`Backend`]: `install` wires the rules'
//! buckets and notifications through the backend traits, and every closure
//! in the pipeline takes `&mut B`.

use std::cell::{Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use cloudapi::faas::FnHandle;
use cloudapi::objstore::{BlobId, Content, ETag, EventKind, ObjectEvent, StoreError};
use cloudapi::RegionId;
use simkernel::{SimDuration, SimTime};

use simtrace::{names, SpanId};

use crate::backend::{Backend, Exec, FnBody};
use crate::batching::{BatchDecision, Batcher};
use crate::catchup;
use crate::changelog;
use crate::config::{EngineConfig, ReplicationRule};
use crate::engine::{self, TaskOutcome, TaskSpec, TaskStatus};
use crate::health::{RecheckAdvice, WriteRoute};
use crate::lock::{self, LockOutcome};
use crate::logger::{ObserveOutcome, OnlineLogger};
use crate::metrics::{CompletionRecord, Metrics};
use crate::model::{PathKey, PerfModel};
use crate::planner::{self, Plan};
use crate::profiler::{self, ProfilerConfig};
use crate::tenant::{AdmissionDecision, TenantCtx};

/// Mutable service state shared by every event closure.
pub struct ServiceState {
    /// Installed rules.
    pub rules: Vec<ReplicationRule>,
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// The performance model (profiled offline, updated online).
    pub model: PerfModel,
    /// Collected metrics.
    pub metrics: Metrics,
    /// Per-rule batching state.
    pub batchers: Vec<Batcher>,
    /// Online model updater.
    pub logger: OnlineLogger,
    /// The tenant this service instance replicates for (the implicit
    /// default tenant unless the control plane supplied one).
    pub tenant: TenantCtx,
    /// Tasks currently between trigger and conclusion, for the deadline
    /// watchdog. Populated only when a health handle is attached.
    inflight: HashSet<(usize, String, u64)>,
    /// Keys whose SLO miss was already counted at divert time; their
    /// eventual failback completion skips SLO/breaker accounting.
    slo_exempt: HashSet<(usize, String)>,
    /// Rules with a live breaker-recheck loop (at most one per rule).
    rechecking: HashSet<usize>,
}

type St = Rc<RefCell<ServiceState>>;

/// A deployed AReplica instance. Cloning is cheap and yields another
/// handle to the same installed service (useful for scheduling reads
/// against it from `'static` closures).
#[derive(Clone)]
pub struct AReplica {
    state: St,
}

/// Builder for [`AReplica`].
#[derive(Default)]
pub struct AReplicaBuilder {
    rules: Vec<ReplicationRule>,
    cfg: EngineConfig,
    model: Option<PerfModel>,
    profiler_cfg: ProfilerConfig,
    tenant: TenantCtx,
}

impl AReplicaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        AReplicaBuilder::default()
    }

    /// Adds a replication rule.
    pub fn rule(mut self, rule: ReplicationRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Overrides the engine configuration.
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Installs a pre-built performance model (skips profiling).
    pub fn model(mut self, model: PerfModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Overrides the profiler budget used when no model is supplied.
    pub fn profiler_config(mut self, cfg: ProfilerConfig) -> Self {
        self.profiler_cfg = cfg;
        self
    }

    /// Deploys the service for a specific tenant (control-plane path): the
    /// tenant's quota caps engine parallelism and backend FaaS concurrency,
    /// its SLO overrides rule SLOs for planning, its admission policy gates
    /// incoming events, and its fleet cadence governs watchdog/janitor
    /// services. Without this the service runs as the implicit default
    /// tenant and behaves exactly as before tenancy existed.
    pub fn tenant(mut self, tenant: TenantCtx) -> Self {
        self.tenant = tenant;
        self
    }

    /// Profiles (if needed), creates buckets, subscribes notifications, and
    /// returns the running service.
    pub fn install<B: Backend>(mut self, sim: &mut B) -> AReplica {
        assert!(!self.rules.is_empty(), "at least one rule required");
        // Offline profiling in a sandbox backend with the same ground truth.
        let model = self.model.take().unwrap_or_else(|| {
            let pairs: Vec<(RegionId, RegionId)> = self
                .rules
                .iter()
                .map(|r| (r.src_region, r.dst_region))
                .collect();
            let mut sandbox = sim.profiling_sandbox(self.profiler_cfg.seed);
            profiler::build_model(&mut sandbox, &pairs, &self.profiler_cfg)
                // xlint::allow(no-unwrap-in-lib, deploy-time boundary: a profiling failure here means a misconfigured ProfilerConfig, surfaced before any replication starts)
                .expect("offline profiling failed")
        });
        self.profiler_cfg.chunk_size = self.cfg.part_size;

        // Tenant quota caps the engine's parallelism and registers the
        // backend-side FaaS concurrency limit. No-ops for the default
        // tenant (no id, no quota).
        if let (Some(id), Some(limit)) = (self.tenant.id(), self.tenant.faas_concurrency) {
            self.cfg.max_parallelism = self.cfg.max_parallelism.min(limit);
            sim.set_tenant_concurrency_limit(id, Some(limit));
        }

        let n_rules = self.rules.len();
        let state: St = Rc::new(RefCell::new(ServiceState {
            rules: self.rules,
            cfg: self.cfg,
            model,
            metrics: Metrics::default(),
            batchers: (0..n_rules).map(|_| Batcher::new()).collect(),
            logger: OnlineLogger::new(),
            tenant: self.tenant,
            inflight: HashSet::new(),
            slo_exempt: HashSet::new(),
            rechecking: HashSet::new(),
        }));

        for rule_idx in 0..n_rules {
            let (src_region, src_bucket, dst_region, dst_bucket) = {
                let st = state.borrow();
                let r = &st.rules[rule_idx];
                (
                    r.src_region,
                    r.src_bucket.clone(),
                    r.dst_region,
                    r.dst_bucket.clone(),
                )
            };
            sim.create_bucket(src_region, &src_bucket);
            sim.create_bucket(dst_region, &dst_bucket);
            let st = state.clone();
            sim.subscribe_bucket(
                src_region,
                &src_bucket,
                Rc::new(move |sim, _region, ev| {
                    on_object_event(sim, st.clone(), rule_idx, ev);
                }),
            )
            // xlint::allow(no-unwrap-in-lib, subscribing to the bucket created two statements above cannot miss)
            .expect("bucket just created");
        }

        AReplica { state }
    }
}

impl AReplica {
    /// Read access to collected metrics.
    pub fn metrics(&self) -> Ref<'_, Metrics> {
        Ref::map(self.state.borrow(), |s| &s.metrics)
    }

    /// Read access to the (possibly logger-adjusted) model.
    pub fn model(&self) -> Ref<'_, PerfModel> {
        Ref::map(self.state.borrow(), |s| &s.model)
    }

    /// Number of online model adjustments so far.
    pub fn model_adjustments(&self) -> u64 {
        self.state.borrow().logger.adjustments
    }

    /// Direct handle to the shared state (tests and experiment harnesses).
    pub fn state(&self) -> St {
        self.state.clone()
    }

    /// Degraded read for a rule's object: reads from the destination
    /// replica first (the copy closest to a destination-side consumer) and
    /// falls back to the source region when the replica is unavailable or
    /// the key has not arrived there yet. `cb` receives the content, its
    /// version, and the region that actually served the read.
    pub fn read_with_fallback<B: Backend>(
        &self,
        sim: &mut B,
        rule_idx: usize,
        key: String,
        cb: impl FnOnce(&mut B, Result<(Content, ETag, RegionId), StoreError>) + 'static,
    ) {
        let (src_region, src_bucket, dst_region, dst_bucket) = {
            let s = self.state.borrow();
            let r = &s.rules[rule_idx];
            (
                r.src_region,
                r.src_bucket.clone(),
                r.dst_region,
                r.dst_bucket.clone(),
            )
        };
        let st = self.state.clone();
        read_object(sim, dst_region, dst_bucket, key.clone(), move |sim, res| {
            match res {
                Ok((content, etag)) => cb(sim, Ok((content, etag, dst_region))),
                // Replica down (outage) or not yet converged: serve from
                // the source, which just accepted the write.
                Err(StoreError::Unavailable) | Err(StoreError::NoSuchKey) => {
                    st.borrow_mut().metrics.read_fallbacks += 1;
                    sim.tracer().counter_add("service.read_fallbacks", 1);
                    read_object(sim, src_region, src_bucket, key, move |sim, res| {
                        cb(sim, res.map(|(c, e)| (c, e, src_region)));
                    });
                }
                Err(e) => cb(sim, Err(e)),
            }
        });
    }
}

/// Stat-then-GET of a whole object from one region (helper for
/// [`AReplica::read_with_fallback`]).
fn read_object<B: Backend>(
    sim: &mut B,
    region: RegionId,
    bucket: String,
    key: String,
    cb: impl FnOnce(&mut B, Result<(Content, ETag), StoreError>) + 'static,
) {
    let exec = Exec::Platform {
        region,
        mbps: 1000.0,
    };
    sim.stat_object(
        exec,
        region,
        bucket.clone(),
        key.clone(),
        move |sim, res| match res {
            Ok(stat) => {
                sim.get_object_range(exec, region, bucket, key, 0, stat.size, Some(stat.etag), cb);
            }
            Err(e) => cb(sim, Err(e)),
        },
    );
}

// ---------------------------------------------------------------------------
// Event pipeline.
// ---------------------------------------------------------------------------

fn on_object_event<B: Backend>(sim: &mut B, st: St, rule_idx: usize, ev: ObjectEvent) {
    if ev.kind == EventKind::Delete {
        trigger_delete(sim, st, rule_idx, ev.key, ev.etag, ev.seq);
        return;
    }
    // Tenant admission control: the control plane's token bucket decides
    // whether this event is processed now, after a deterministic queueing
    // delay (capacity already reserved — no re-check on fire), or dropped.
    // The default tenant has no policy and goes straight through.
    let decision = {
        let s = st.borrow();
        s.tenant.admission.as_ref().map(|p| (p.clone(), sim.now()))
    };
    if let Some((policy, now)) = decision {
        match policy.borrow_mut().admit(now, ev.size) {
            AdmissionDecision::Admit => {}
            AdmissionDecision::Queue(delay) => {
                {
                    let mut s = st.borrow_mut();
                    s.metrics.admission_queued += 1;
                    let name = s.tenant.metric("service.admission_queued");
                    // Timestamped so admission pressure is queryable over
                    // sliding windows (dashboards); the cumulative counter
                    // is unchanged.
                    sim.tracer().counter_add_at(now, &name, 1);
                }
                let st2 = st.clone();
                sim.schedule_in(delay, move |sim| {
                    process_object_event(sim, st2, rule_idx, ev);
                });
                return;
            }
            AdmissionDecision::Reject => {
                let mut s = st.borrow_mut();
                s.metrics.admission_rejected += 1;
                let name = s.tenant.metric("service.admission_rejected");
                sim.tracer().counter_add_at(now, &name, 1);
                return;
            }
        }
    }
    process_object_event(sim, st, rule_idx, ev);
}

fn process_object_event<B: Backend>(sim: &mut B, st: St, rule_idx: usize, ev: ObjectEvent) {
    // SLO-bounded batching (Algorithm 4).
    let decision = {
        let mut s = st.borrow_mut();
        let rule = &s.rules[rule_idx];
        match (rule.batching, rule.slo) {
            (true, Some(slo)) => {
                let deadline = ev.event_time + slo;
                let (src, dst, percentile) = (rule.src_region, rule.dst_region, rule.percentile);
                let margin = rule.safety_margin;
                let s = &mut *s;
                let t_rep = planner::generate_plan(
                    &mut s.model,
                    &s.cfg,
                    src,
                    dst,
                    ev.size,
                    None,
                    percentile,
                )
                .map(|p| p.predicted.mul_f64(margin))
                .unwrap_or(SimDuration::from_secs(3600));
                let now = sim.now();
                Some(s.batchers[rule_idx].on_event(&ev.key, ev.etag, now, deadline, t_rep))
            }
            _ => None,
        }
    };
    match decision {
        None => {
            trigger_replication(
                sim,
                st,
                rule_idx,
                ev.key,
                ev.etag,
                ev.seq,
                ev.size,
                ev.event_time,
            );
        }
        Some(BatchDecision::ReplicateNow {
            absorbed,
            earliest_deadline,
        }) => {
            let event_time = {
                let mut s = st.borrow_mut();
                s.metrics.batched_skips += absorbed;
                // Delay accounting is bound by the earliest absorbed
                // version's PUT time (deadline - SLO), if any.
                match (earliest_deadline, s.rules[rule_idx].slo) {
                    (Some(d), Some(slo)) => {
                        SimTime::from_nanos(d.as_nanos().saturating_sub(slo.as_nanos()))
                            .min(ev.event_time)
                    }
                    _ => ev.event_time,
                }
            };
            if absorbed > 0 {
                sim.tracer().counter_add("service.batched_skips", absorbed);
                if sim.tracer().enabled() {
                    let now = sim.now();
                    let tags = vec![("key", ev.key.clone()), ("absorbed", absorbed.to_string())];
                    sim.tracer().instant(now, names::TASK_BATCHED, tags);
                }
            }
            trigger_replication(
                sim, st, rule_idx, ev.key, ev.etag, ev.seq, ev.size, event_time,
            );
        }
        Some(BatchDecision::Buffered { fire_at, arm_timer }) => {
            if arm_timer {
                let (src_region, key) = {
                    let s = st.borrow();
                    (s.rules[rule_idx].src_region, ev.key.clone())
                };
                let st2 = st.clone();
                let key2 = key.clone();
                let delay = fire_at.saturating_since(sim.now());
                let token = sim.workflow_delay(src_region, delay, move |sim| {
                    on_batch_timer(sim, st2, rule_idx, key2);
                });
                st.borrow_mut().batchers[rule_idx].set_timer(&key, token);
            }
        }
    }
}

/// A batching timer fired: replicate the newest version of the key.
fn on_batch_timer<B: Backend>(sim: &mut B, st: St, rule_idx: usize, key: String) {
    let (src_region, src_bucket, earliest_event, absorbed) = {
        let mut s = st.borrow_mut();
        let drained = s.batchers[rule_idx].take_pending(&key);
        let slo = s.rules[rule_idx].slo;
        let earliest_event = match (&drained, slo) {
            (Some(d), Some(slo)) => Some(SimTime::from_nanos(
                d.earliest_deadline
                    .as_nanos()
                    .saturating_sub(slo.as_nanos()),
            )),
            _ => None,
        };
        let absorbed = drained.map_or(0, |d| d.absorbed);
        s.metrics.batched_skips += absorbed;
        let r = &s.rules[rule_idx];
        (r.src_region, r.src_bucket.clone(), earliest_event, absorbed)
    };
    if absorbed > 0 {
        sim.tracer().counter_add("service.batched_skips", absorbed);
        if sim.tracer().enabled() {
            let now = sim.now();
            let tags = vec![("key", key.clone()), ("absorbed", absorbed.to_string())];
            sim.tracer().instant(now, names::TASK_BATCHED, tags);
        }
    }
    // Replicate whatever is newest *now* (Algorithm 4 line 6). Delay
    // accounting runs from the earliest buffered version's PUT.
    let stat = sim.stat_now(src_region, &src_bucket, &key);
    if let Ok(stat) = stat {
        let event_time = earliest_event
            .unwrap_or(stat.created_at)
            .min(stat.created_at);
        trigger_replication(
            sim, st, rule_idx, key, stat.etag, stat.seq, stat.size, event_time,
        );
    }
}

/// Invokes an orchestrator function at the source region for one version.
#[allow(clippy::too_many_arguments)]
fn trigger_replication<B: Backend>(
    sim: &mut B,
    st: St,
    rule_idx: usize,
    key: String,
    etag: ETag,
    seq: u64,
    size: u64,
    event_time: SimTime,
) {
    let src_region = st.borrow().rules[rule_idx].src_region;
    // Graceful degradation: when the tenant's breaker for the destination
    // is open, skip the replication attempt entirely — it would burn
    // function time against a dead region — and record the version in the
    // durable catch-up log for the failback replicator. No handle (the
    // default) means no consultation and the historical event sequence.
    let health = st.borrow().tenant.health.clone();
    if let Some(health) = health {
        let now = sim.now();
        let dst_region = st.borrow().rules[rule_idx].dst_region;
        if health.borrow_mut().write_route(now, dst_region) == WriteRoute::Divert {
            divert_to_catchup(sim, st, rule_idx, key, etag, seq, size);
            return;
        }
        // Deadline watchdog: the breaker can only learn about a black-holed
        // destination if someone reports the silence. At the effective SLO
        // deadline, a task still in flight counts as one failure in the
        // breaker's error window and wakes the recheck loop.
        let slo = st.borrow().tenant.slo.or(st.borrow().rules[rule_idx].slo);
        if let Some(slo) = slo {
            st.borrow_mut()
                .inflight
                .insert((rule_idx, key.clone(), seq));
            let st_watch = st.clone();
            let key_watch = key.clone();
            let delay = (event_time + slo).saturating_since(now);
            sim.schedule_in(delay, move |sim| {
                on_deadline_check(sim, st_watch, rule_idx, key_watch, seq, dst_region);
            });
        }
    }
    // The task span starts at the object's PUT time, so its duration *is*
    // the replication delay the metrics account (trace-vs-metrics
    // cross-checks rely on this).
    let span = if sim.tracer().enabled() {
        let mut tags = vec![
            ("rule", rule_idx.to_string()),
            ("key", key.clone()),
            ("etag", format!("{:016x}", etag.0)),
            ("size", size.to_string()),
            ("event_time_ns", event_time.as_nanos().to_string()),
        ];
        if let Some(id) = st.borrow().tenant.id() {
            tags.push(("tenant", id.to_string()));
        }
        sim.tracer().span_begin(event_time, names::TASK, tags)
    } else {
        SpanId::NULL
    };
    sim.tracer().counter_add("service.tasks", 1);
    // Per-tenant metrics scope (absent for the default tenant, keeping the
    // default metric registry byte-identical).
    if !st.borrow().tenant.is_default() {
        let name = st.borrow().tenant.metric("service.tasks");
        sim.tracer().counter_add(&name, 1);
    }
    let spec = sim.default_fn_spec(src_region);
    let policy = st.borrow().cfg.retry.invoke_policy();
    let body: FnBody<B> = Rc::new(move |sim, handle| {
        orchestrate(
            sim,
            st.clone(),
            rule_idx,
            handle,
            key.clone(),
            etag,
            seq,
            size,
            event_time,
            span,
        );
    });
    sim.invoke(src_region, spec, body, policy);
}

/// The orchestrator function body.
#[allow(clippy::too_many_arguments)]
fn orchestrate<B: Backend>(
    sim: &mut B,
    st: St,
    rule_idx: usize,
    handle: FnHandle,
    key: String,
    etag: ETag,
    seq: u64,
    size: u64,
    event_time: SimTime,
    span: SpanId,
) {
    let (src_region, src_bucket) = {
        let s = st.borrow();
        let r = &s.rules[rule_idx];
        (r.src_region, r.src_bucket.clone())
    };
    let exec = Exec::Function(handle);
    let lock_key = format!("{src_bucket}/{key}");
    let now = sim.now();
    let lock_span = if sim.tracer().enabled() {
        sim.tracer()
            .span_begin(now, names::TASK_LOCK, vec![("key", key.clone())])
    } else {
        SpanId::NULL
    };
    let st2 = st.clone();
    sim.db_transact(
        exec,
        src_region,
        lock::LOCK_TABLE.into(),
        lock_key,
        lock::try_lock_tx(etag, seq),
        move |sim, outcome| match outcome {
            LockOutcome::Busy => {
                // A concurrent task holds the lock; our version is pending:
                // the holder's conclusion re-triggers it as a fresh task.
                if sim.tracer().enabled() {
                    let now = sim.now();
                    let busy = vec![("outcome", "busy".to_string())];
                    sim.tracer().span_end_tagged(now, lock_span, busy);
                    let status = vec![("status", "lock_busy".to_string())];
                    sim.tracer().span_end_tagged(now, span, status);
                }
                sim.finish_function(handle);
            }
            LockOutcome::Acquired => {
                if sim.tracer().enabled() {
                    let now = sim.now();
                    let acq = vec![("outcome", "acquired".to_string())];
                    sim.tracer().span_end_tagged(now, lock_span, acq);
                }
                maybe_apply_changelog(
                    sim, st2, rule_idx, handle, key, etag, seq, size, event_time, span,
                );
            }
        },
    );
}

/// Checks for a changelog hint before falling back to full replication.
#[allow(clippy::too_many_arguments)]
fn maybe_apply_changelog<B: Backend>(
    sim: &mut B,
    st: St,
    rule_idx: usize,
    handle: FnHandle,
    key: String,
    etag: ETag,
    seq: u64,
    size: u64,
    event_time: SimTime,
    span: SpanId,
) {
    let (enabled, src_region, src_bucket, dst_region, dst_bucket) = {
        let s = st.borrow();
        let r = &s.rules[rule_idx];
        (
            r.changelog,
            r.src_region,
            r.src_bucket.clone(),
            r.dst_region,
            r.dst_bucket.clone(),
        )
    };
    if !enabled {
        plan_and_execute(
            sim, st, rule_idx, handle, key, etag, seq, size, event_time, span,
        );
        return;
    }
    let exec = Exec::Function(handle);
    let hint_key = changelog::entry_key(&src_bucket, &key, etag);
    let now = sim.now();
    let cl_span = if sim.tracer().enabled() {
        sim.tracer()
            .span_begin(now, names::TASK_CHANGELOG, vec![("key", key.clone())])
    } else {
        SpanId::NULL
    };
    let st2 = st.clone();
    sim.db_get(
        exec,
        src_region,
        changelog::CHANGELOG_TABLE.into(),
        hint_key,
        move |sim, item| {
            let op = item.as_ref().and_then(changelog::decode);
            match op {
                Some(op) => {
                    let st3 = st2.clone();
                    let key2 = key.clone();
                    changelog::apply_at_destination(
                        sim,
                        exec,
                        dst_region,
                        dst_bucket,
                        key.clone(),
                        op,
                        move |sim, applied| match applied {
                            Ok(applied_etag) => {
                                if sim.tracer().enabled() {
                                    let now = sim.now();
                                    let tags = vec![("applied", "true".to_string())];
                                    sim.tracer().span_end_tagged(now, cl_span, tags);
                                }
                                sim.tracer().counter_add("service.changelog_applied", 1);
                                conclude(
                                    sim,
                                    st3,
                                    rule_idx,
                                    key2,
                                    seq,
                                    size,
                                    event_time,
                                    TaskStatus::Replicated { etag: applied_etag },
                                    None,
                                    true,
                                    span,
                                );
                                sim.finish_function(handle);
                            }
                            Err(()) => {
                                // Destination stale: full replication.
                                if sim.tracer().enabled() {
                                    let now = sim.now();
                                    let tags = vec![("applied", "false".to_string())];
                                    sim.tracer().span_end_tagged(now, cl_span, tags);
                                }
                                plan_and_execute(
                                    sim, st3, rule_idx, handle, key2, etag, seq, size, event_time,
                                    span,
                                );
                            }
                        },
                    );
                }
                None => {
                    if sim.tracer().enabled() {
                        let now = sim.now();
                        let tags = vec![("hint", "false".to_string())];
                        sim.tracer().span_end_tagged(now, cl_span, tags);
                    }
                    plan_and_execute(
                        sim, st2, rule_idx, handle, key, etag, seq, size, event_time, span,
                    );
                }
            }
        },
    );
}

/// Plans and dispatches the replication (Algorithm 3 → Algorithm 1).
#[allow(clippy::too_many_arguments)]
fn plan_and_execute<B: Backend>(
    sim: &mut B,
    st: St,
    rule_idx: usize,
    handle: FnHandle,
    key: String,
    etag: ETag,
    seq: u64,
    size: u64,
    event_time: SimTime,
    span: SpanId,
) {
    let now = sim.now();
    let (task, plan, predicted_mean) = {
        let mut s = st.borrow_mut();
        let (src_region, dst_region, src_bucket, dst_bucket, rule_slo, percentile, margin) = {
            let rule = &s.rules[rule_idx];
            (
                rule.src_region,
                rule.dst_region,
                rule.src_bucket.clone(),
                rule.dst_bucket.clone(),
                rule.slo,
                rule.percentile,
                rule.safety_margin,
            )
        };
        let task = TaskSpec {
            src_region,
            src_bucket,
            dst_region,
            dst_bucket,
            key: key.clone(),
            etag,
            seq,
            size,
            event_time,
        };
        // A per-tenant SLO (control-plane registry) overrides the rule's.
        let rule_slo = s.tenant.slo.or(rule_slo);
        // Remaining SLO budget, net of the already-elapsed notification
        // stage: SLO_rep = SLO - (now - event_time).
        let slo_rep = rule_slo.map(|slo| {
            let elapsed = now.saturating_since(event_time);
            // The safety margin shrinks the budget plans must fit within.
            slo.saturating_sub(elapsed).mul_f64(1.0 / margin.max(1.0))
        });
        if rule_slo.is_some() && slo_rep == Some(SimDuration::ZERO) {
            s.metrics.slo_previolated += 1;
            sim.tracer().counter_add("service.slo_previolated", 1);
        }
        let s = &mut *s;
        let plan = planner::generate_plan(
            &mut s.model,
            &s.cfg,
            src_region,
            dst_region,
            size,
            slo_rep,
            percentile,
        )
        // xlint::allow(no-unwrap-in-lib, install() profiles every rule path before subscribing, so the planner always finds parameters)
        .expect("rule paths are profiled at install time");
        // The logger compares like with like: the *mean* prediction, not the
        // SLO percentile (comparing a typical run against a p99.99 bound
        // would register permanent "drift" and corrupt the model).
        let predicted_mean = s
            .model
            .t_rep_mean(
                PathKey {
                    src: src_region,
                    dst: dst_region,
                    side: plan.side,
                },
                size,
                plan.n,
                plan.local,
            )
            .unwrap_or(plan.predicted.as_secs_f64());
        (task, plan, predicted_mean)
    };
    if sim.tracer().enabled() {
        let tags = vec![
            ("key", key.clone()),
            ("n", plan.n.to_string()),
            ("side", format!("{:?}", plan.side)),
            ("local", plan.local.to_string()),
            (
                "predicted_s",
                format!("{:.6}", plan.predicted.as_secs_f64()),
            ),
        ];
        sim.tracer().instant(now, names::TASK_PLAN, tags);
    }

    let st2 = st.clone();
    let cfg = st.borrow().cfg.clone();
    let plan_made_at = now;
    let on_done: engine::OnDone<B> = Rc::new(move |sim, outcome: TaskOutcome| {
        let st3 = st2.clone();
        let key2 = outcome_key(&outcome, &key);
        let actual = sim.now().saturating_since(plan_made_at);
        conclude(
            sim,
            st3,
            rule_idx,
            key2,
            seq,
            size,
            event_time,
            outcome.status,
            Some((plan, predicted_mean, actual, outcome.n_funcs)),
            false,
            span,
        );
    });
    // The orchestrator's invocation completes when its own work is done: at
    // the end of the transfer for local plans, or once the replicators are
    // dispatched otherwise.
    let release_handle = handle;
    let tenant = st.borrow().tenant.clone();
    engine::execute_for(
        sim,
        tenant,
        cfg,
        task,
        plan,
        Some(handle),
        on_done,
        Box::new(move |sim: &mut B| sim.finish_function(release_handle)),
    );
}

fn outcome_key(_outcome: &TaskOutcome, key: &str) -> String {
    key.to_string()
}

/// Terminal bookkeeping: metrics, the online logger, unlock, and pending /
/// abort re-triggers.
#[allow(clippy::too_many_arguments)]
fn conclude<B: Backend>(
    sim: &mut B,
    st: St,
    rule_idx: usize,
    key: String,
    seq: u64,
    size: u64,
    event_time: SimTime,
    status: TaskStatus,
    plan_info: Option<(Plan, f64, SimDuration, u32)>,
    via_changelog: bool,
    span: SpanId,
) {
    let now = sim.now();
    let replicated_etag = match status {
        TaskStatus::Replicated { etag } => Some(etag),
        _ => None,
    };
    let status_tag = match status {
        TaskStatus::Replicated { .. } => "replicated",
        TaskStatus::AbortedEtagMismatch { .. } => "aborted_etag_mismatch",
        TaskStatus::SourceGone => "source_gone",
    };
    if sim.tracer().enabled() {
        let tags = vec![
            ("status", status_tag.to_string()),
            ("via_changelog", via_changelog.to_string()),
        ];
        sim.tracer().span_end_tagged(now, span, tags);
        sim.tracer()
            .counter_add(&format!("service.tasks.{status_tag}"), 1);
    }
    let mut recheck_needed = false;
    {
        let mut s = st.borrow_mut();
        s.inflight.remove(&(rule_idx, key.clone(), seq));
        match status {
            TaskStatus::Replicated { etag } => {
                let (side, n_funcs) = plan_info
                    .map(|(p, _, _, n)| (p.side, n))
                    .unwrap_or((crate::model::ExecSide::Source, 0));
                s.metrics.record_completion(CompletionRecord {
                    rule: rule_idx,
                    key: key.clone(),
                    etag,
                    size,
                    event_time,
                    completed_at: now,
                    n_funcs,
                    side,
                    via_changelog,
                });
                // Failback completions already counted their SLO miss at
                // divert time; replaying them into the SLO counters or the
                // breaker window would double-count the outage.
                let exempt = s.slo_exempt.remove(&(rule_idx, key.clone()));
                if exempt {
                    s.metrics.failbacks += 1;
                    sim.tracer().counter_add("service.failbacks", 1);
                }
                // Live SLO accounting: classify the completion against the
                // effective SLO (tenant override, else rule) and feed the
                // windowed good/bad counters the burn-rate monitor watches.
                // Pure registry memory, gated on enablement — untraced runs
                // pay one branch.
                if sim.tracer().enabled() && !exempt {
                    if let Some(slo) = s.tenant.slo.or(s.rules[rule_idx].slo) {
                        let delay = now.saturating_since(event_time);
                        let verdict = if delay <= slo { "slo.good" } else { "slo.bad" };
                        let name = s.tenant.metric(verdict);
                        sim.tracer().counter_add_at(now, &name, 1);
                        let dname = s.tenant.metric("slo.delay_secs");
                        sim.tracer()
                            .histogram_record_at(now, &dname, delay.as_secs_f64());
                    }
                }
                // Breaker feedback: a timely completion is a success; a
                // late one counts against the destination's error window.
                // A late straggler (e.g. a write that stalled through a
                // whole outage) can be the outcome that trips — or
                // re-trips — the breaker, so if the route is Divert
                // afterwards a recheck loop must be running, or an
                // otherwise-quiet tenant would stay tripped forever.
                if !exempt {
                    if let Some(health) = s.tenant.health.clone() {
                        let slo = s.tenant.slo.or(s.rules[rule_idx].slo);
                        let ok = slo.is_none_or(|slo| now.saturating_since(event_time) <= slo);
                        let dst_region = s.rules[rule_idx].dst_region;
                        let mut h = health.borrow_mut();
                        h.record_outcome(now, dst_region, ok);
                        if h.write_route(now, dst_region) == WriteRoute::Divert {
                            recheck_needed = true;
                        }
                    }
                }
                // Online logger: compare the mean prediction with reality.
                if let Some((plan, predicted_mean, actual, _)) = plan_info {
                    let r = &s.rules[rule_idx];
                    let path = PathKey {
                        src: r.src_region,
                        dst: r.dst_region,
                        side: plan.side,
                    };
                    let actual_s = actual.as_secs_f64();
                    let ServiceState { model, logger, .. } = &mut *s;
                    let outcome = logger.observe(model, path, predicted_mean, actual_s);
                    match outcome {
                        ObserveOutcome::Invalid => {
                            sim.tracer().counter_add("logger.invalid_observations", 1);
                        }
                        ObserveOutcome::Recorded => {
                            sim.tracer().counter_add("logger.observations", 1);
                        }
                        ObserveOutcome::WindowClosed { ratio, applied } => {
                            sim.tracer().counter_add("logger.observations", 1);
                            sim.tracer().counter_add("logger.window_evictions", 1);
                            if sim.tracer().enabled() {
                                let mut tags = vec![("ratio", format!("{ratio:.6}"))];
                                if let Some(f) = applied {
                                    tags.push(("factor", format!("{f:.6}")));
                                }
                                sim.tracer().instant(now, names::LOGGER_WINDOW, tags);
                            }
                            if let Some(f) = applied {
                                sim.tracer().counter_add("logger.adjustments", 1);
                                sim.tracer().gauge_set("logger.last_scale_factor", f);
                            }
                        }
                    }
                }
            }
            TaskStatus::AbortedEtagMismatch { .. } => {
                s.metrics.aborted_retries += 1;
                sim.tracer().counter_add("service.aborted_retries", 1);
            }
            TaskStatus::SourceGone => {}
        }
    }
    if recheck_needed {
        ensure_recheck(sim, st.clone(), rule_idx);
    }

    // Release the lock; a pending newer version re-triggers replication.
    let (src_region, src_bucket) = {
        let s = st.borrow();
        let r = &s.rules[rule_idx];
        (r.src_region, r.src_bucket.clone())
    };
    let lock_key = format!("{src_bucket}/{key}");
    let exec = Exec::Platform {
        region: src_region,
        mbps: 1000.0,
    };
    let st2 = st.clone();
    let aborted_current = match status {
        TaskStatus::AbortedEtagMismatch { current } => current,
        _ => None,
    };
    sim.db_transact(
        exec,
        src_region,
        lock::LOCK_TABLE.into(),
        lock_key,
        lock::unlock_tx(replicated_etag),
        move |sim, pending| {
            if let Some(p) = pending {
                // Replicate the pending newest version.
                retrigger_for_version(sim, st2, rule_idx, key, p.etag, p.seq, event_time);
            } else if let Some(current) = aborted_current {
                // Aborted on a newer version whose own notification may have
                // been lost to batching timing: replicate it directly.
                retrigger_for_version(sim, st2, rule_idx, key, current, seq + 1, event_time);
            }
        },
    );
}

/// Stats the source for the version's size and re-triggers replication.
fn retrigger_for_version<B: Backend>(
    sim: &mut B,
    st: St,
    rule_idx: usize,
    key: String,
    etag: ETag,
    seq: u64,
    _prev_event_time: SimTime,
) {
    let (src_region, src_bucket) = {
        let s = st.borrow();
        let r = &s.rules[rule_idx];
        (r.src_region, r.src_bucket.clone())
    };
    match sim.stat_now(src_region, &src_bucket, &key) {
        Ok(stat) => {
            // Replicate whatever is current; measure delay from its PUT.
            trigger_replication(
                sim,
                st,
                rule_idx,
                key,
                stat.etag,
                stat.seq.max(seq),
                stat.size,
                stat.created_at,
            );
        }
        Err(StoreError::NoSuchKey) => { /* deleted meanwhile; DELETE event handles it */ }
        Err(e) => panic!("unexpected stat error: {e}"),
    }
    let _ = etag;
}

/// DELETE propagation: serialize through the same lock, remove at the
/// destination.
fn trigger_delete<B: Backend>(
    sim: &mut B,
    st: St,
    rule_idx: usize,
    key: String,
    etag: ETag,
    seq: u64,
) {
    let (src_region, src_bucket, dst_region, dst_bucket) = {
        let s = st.borrow();
        let r = &s.rules[rule_idx];
        (
            r.src_region,
            r.src_bucket.clone(),
            r.dst_region,
            r.dst_bucket.clone(),
        )
    };
    let spec = sim.default_fn_spec(src_region);
    let policy = st.borrow().cfg.retry.invoke_policy();
    let st2 = st.clone();
    let body: FnBody<B> = Rc::new(move |sim, handle| {
        let exec = Exec::Function(handle);
        let lock_key = format!("{src_bucket}/{}", key);
        let st3 = st2.clone();
        let key2 = key.clone();
        let dst_bucket2 = dst_bucket.clone();
        let src_bucket2 = src_bucket.clone();
        sim.db_transact(
            exec,
            src_region,
            lock::LOCK_TABLE.into(),
            lock_key.clone(),
            lock::try_lock_tx(etag, seq),
            move |sim, outcome| match outcome {
                LockOutcome::Busy => sim.finish_function(handle),
                LockOutcome::Acquired => {
                    let st4 = st3.clone();
                    let key3 = key2.clone();
                    let src_bucket3 = src_bucket2.clone();
                    sim.delete_object(
                        exec,
                        dst_region,
                        dst_bucket2.clone(),
                        key2.clone(),
                        move |sim, result| {
                            match result {
                                Ok(_) | Err(StoreError::NoSuchKey) => {
                                    st4.borrow_mut().metrics.deletes_propagated += 1;
                                    sim.tracer().counter_add("service.deletes_propagated", 1);
                                }
                                Err(e) => panic!("unexpected delete error: {e}"),
                            }
                            // Unlock; a pending PUT that raced the delete
                            // re-triggers replication.
                            let lock_key = format!("{src_bucket3}/{key3}");
                            let exec_p = Exec::Platform {
                                region: src_region,
                                mbps: 1000.0,
                            };
                            let st5 = st4.clone();
                            sim.db_transact(
                                exec_p,
                                src_region,
                                lock::LOCK_TABLE.into(),
                                lock_key,
                                lock::unlock_tx(Some(etag)),
                                move |sim, pending| {
                                    if let Some(p) = pending {
                                        retrigger_for_version(
                                            sim,
                                            st5,
                                            rule_idx,
                                            key3,
                                            p.etag,
                                            p.seq,
                                            SimTime::ZERO,
                                        );
                                    }
                                },
                            );
                            sim.finish_function(handle);
                        },
                    );
                }
            },
        );
    });
    sim.invoke(src_region, spec, body, policy);
}

// ---------------------------------------------------------------------------
// Graceful degradation: catch-up divert, deadline watchdog, breaker recheck.
// ---------------------------------------------------------------------------

/// Key of the tiny probe object written to the destination bucket when the
/// breaker half-opens (never replicated; not part of any rule's source).
pub const PROBE_KEY: &str = ".areplica-probe";

/// Records a version in the rule's durable catch-up queue instead of
/// replicating it (destination breaker open). SLO accounting happens here —
/// a diverted write has, by decision, missed its SLO — and the eventual
/// failback completion is marked exempt so the miss is counted exactly once.
fn divert_to_catchup<B: Backend>(
    sim: &mut B,
    st: St,
    rule_idx: usize,
    key: String,
    etag: ETag,
    seq: u64,
    size: u64,
) {
    let now = sim.now();
    let (src_region, src_bucket, dst_bucket) = {
        let mut s = st.borrow_mut();
        s.metrics.diverted += 1;
        s.slo_exempt.insert((rule_idx, key.clone()));
        let r = &s.rules[rule_idx];
        (r.src_region, r.src_bucket.clone(), r.dst_bucket.clone())
    };
    sim.tracer().counter_add("service.diverted", 1);
    {
        let s = st.borrow();
        if !s.tenant.is_default() {
            let name = s.tenant.metric("service.diverted");
            sim.tracer().counter_add_at(now, &name, 1);
            // The divert *is* the SLO miss: feed the windowed bad counter
            // now so burn-rate alerting sees the outage as it happens, not
            // after failback.
            if s.tenant.slo.or(s.rules[rule_idx].slo).is_some() {
                let bad = s.tenant.metric("slo.bad");
                sim.tracer().counter_add_at(now, &bad, 1);
            }
        }
    }
    let _ = size;
    let exec = Exec::Platform {
        region: src_region,
        mbps: 1000.0,
    };
    let st2 = st.clone();
    sim.db_transact(
        exec,
        src_region,
        catchup::CATCHUP_TABLE.into(),
        catchup::queue_key(&src_bucket, &dst_bucket),
        catchup::enqueue_tx(catchup::CatchupEntry { key, etag, seq }),
        move |sim, depth| {
            sim.tracer()
                .gauge_set("service.catchup_depth", depth as f64);
            ensure_recheck(sim, st2, rule_idx);
        },
    );
}

/// Deadline watchdog body: a task still in flight at its SLO deadline is
/// one failure in the breaker's error window (the only signal a black-holed
/// destination produces), and wakes the recheck loop.
fn on_deadline_check<B: Backend>(
    sim: &mut B,
    st: St,
    rule_idx: usize,
    key: String,
    seq: u64,
    dst_region: RegionId,
) {
    let missed = st.borrow().inflight.contains(&(rule_idx, key, seq));
    if !missed {
        return;
    }
    let health = st.borrow().tenant.health.clone();
    let Some(health) = health else { return };
    let now = sim.now();
    st.borrow_mut().metrics.deadline_missed += 1;
    sim.tracer().counter_add("service.deadline_missed", 1);
    health.borrow_mut().record_outcome(now, dst_region, false);
    // Only loop once the breaker actually tripped; isolated slow tasks
    // leave routing alone and the loop would spin on a Closed breaker.
    if health.borrow_mut().write_route(now, dst_region) == WriteRoute::Divert {
        ensure_recheck(sim, st, rule_idx);
    }
}

/// Starts the breaker-recheck loop for a rule unless one is already live.
fn ensure_recheck<B: Backend>(sim: &mut B, st: St, rule_idx: usize) {
    if st.borrow_mut().rechecking.insert(rule_idx) {
        health_recheck(sim, st, rule_idx);
    }
}

/// One step of the breaker-recheck loop: follow the breaker's advice —
/// wait out the cooldown, or acquire the probe ticket and write a probe
/// object to the destination. The probe's completion resolves the ticket:
/// success closes the breaker and drains the catch-up queue; failure
/// re-opens it and the loop continues.
fn health_recheck<B: Backend>(sim: &mut B, st: St, rule_idx: usize) {
    let health = st.borrow().tenant.health.clone();
    let Some(health) = health else {
        st.borrow_mut().rechecking.remove(&rule_idx);
        return;
    };
    let (src_region, dst_region, dst_bucket) = {
        let s = st.borrow();
        let r = &s.rules[rule_idx];
        (r.src_region, r.dst_region, r.dst_bucket.clone())
    };
    let now = sim.now();
    let advice = health.borrow_mut().recheck(now, dst_region);
    match advice {
        RecheckAdvice::Healthy => {
            st.borrow_mut().rechecking.remove(&rule_idx);
            drain_catchup(sim, st, rule_idx);
        }
        RecheckAdvice::Wait(d) => {
            let st2 = st.clone();
            sim.schedule_in(d, move |sim| health_recheck(sim, st2, rule_idx));
        }
        RecheckAdvice::Probe => {
            if !health.borrow_mut().probe_open(now, dst_region) {
                // Another probe is in flight (e.g. a second rule toward the
                // same destination): back off one base-backoff beat.
                let d = st.borrow().cfg.retry.base_backoff;
                let st2 = st.clone();
                sim.schedule_in(d, move |sim| health_recheck(sim, st2, rule_idx));
                return;
            }
            sim.tracer().counter_add("service.probes", 1);
            let exec = Exec::Platform {
                region: src_region,
                mbps: 1000.0,
            };
            let probe = Content::fresh(BlobId(u64::MAX), 1);
            let st2 = st.clone();
            sim.put_object(
                exec,
                dst_region,
                dst_bucket,
                PROBE_KEY.into(),
                probe,
                move |sim, res| {
                    let ok = res.is_ok();
                    let now = sim.now();
                    health.borrow_mut().probe_resolve(now, dst_region, ok);
                    if ok {
                        st2.borrow_mut().rechecking.remove(&rule_idx);
                        drain_catchup(sim, st2, rule_idx);
                    } else {
                        // Breaker re-opened; keep rechecking (the next
                        // advice is a cooldown wait).
                        health_recheck(sim, st2, rule_idx);
                    }
                },
            );
        }
    }
}

/// Failback replication: atomically takes the rule's catch-up queue and
/// re-triggers replication for each entry through the normal pipeline.
/// Delay is measured from each object's original PUT, so the SLO record
/// stays honest; if the breaker re-opens mid-drain, the untriggered
/// remainder simply re-diverts (idempotent by latest-wins).
fn drain_catchup<B: Backend>(sim: &mut B, st: St, rule_idx: usize) {
    let (src_region, src_bucket, dst_bucket) = {
        let s = st.borrow();
        let r = &s.rules[rule_idx];
        (r.src_region, r.src_bucket.clone(), r.dst_bucket.clone())
    };
    let exec = Exec::Platform {
        region: src_region,
        mbps: 1000.0,
    };
    let st2 = st.clone();
    sim.db_transact(
        exec,
        src_region,
        catchup::CATCHUP_TABLE.into(),
        catchup::queue_key(&src_bucket, &dst_bucket),
        catchup::drain_tx(),
        move |sim, entries| {
            if entries.is_empty() {
                return;
            }
            sim.tracer()
                .counter_add("service.failback_drained", entries.len() as u64);
            sim.tracer().gauge_set("service.catchup_depth", 0.0);
            for e in entries {
                retrigger_for_version(
                    sim,
                    st2.clone(),
                    rule_idx,
                    e.key,
                    e.etag,
                    e.seq,
                    SimTime::ZERO,
                );
            }
        },
    );
}
