//! The repository benchmark: runs one workload from its seed, checks the
//! replicas, and prints end-to-end and per-layer metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --mode <run|traced|simtrace>
//! ```
//!
//! * `run` repeats set-up + replay + check while another repetition still
//!   fits in `--seconds` (at least once) and reports host metrics as medians;
//! * `traced` measures untraced repetitions the same way, then one more
//!   repetition inside the benchmark's own spans, plus the planner probe
//!   (and, for `sharded_replay`, one run on the threaded shard driver);
//! * `simtrace` runs one repetition with the simulator's tracer switched on.
//!
//! The last stdout line is `PERFBENCH <json>`; `run.py` turns it into the
//! benchmark's result line. See README.md in this directory.

mod host;
mod oracle;
mod probe;
mod report;
mod workload;

use std::collections::BTreeMap;

use bench::harness::percentile;
use host::{Clock, Spans};
use oracle::OracleReport;
use report::{median, tail, Obj};
use workload::{Kind, WorldReadings};

/// CPU seconds `setup_s` is scaled to for the reference load: about its
/// time on a 2-core x86-64 virtual machine when the host is quiet.
const REFERENCE_NOMINAL_S: f64 = 0.005;

/// Writes the planner probe replays.
const PROBE_LIMIT: usize = 4000;

/// Set-ups made per repetition, so that set-up time is a median over many
/// samples. One is replayed; half of the others are made before it and
/// half after the repetition's check, so the samples of a repetition span
/// its replay rather than one moment of the machine's varying speed.
const SETUPS_PER_REP: usize = 9;
const DISCARDED_BEFORE: usize = (SETUPS_PER_REP - 1) / 2;
const DISCARDED_AFTER: usize = SETUPS_PER_REP - 1 - DISCARDED_BEFORE;

/// CPU seconds of one set-up, by phase, and of the reference load run
/// just before it.
#[derive(Debug, Clone, Copy, Default)]
struct Setup {
    reference_s: f64,
    generate_s: f64,
    build_model_s: f64,
    install_s: f64,
    schedule_s: f64,
}

impl Setup {
    fn total(&self) -> f64 {
        self.generate_s + self.build_model_s + self.install_s + self.schedule_s
    }
}

/// One repetition: set-ups, replay and check.
struct Rep {
    setups: Vec<Setup>,
    /// CPU seconds of the replay phase.
    replay_s: f64,
    /// Wall-clock seconds of the replay phase, for comparing shard drivers.
    replay_wall_s: f64,
    writes: u64,
    reads: u64,
    gb: f64,
    size_line: String,
    readings: WorldReadings,
    oracle: OracleReport,
    rounds: u64,
    messages: u64,
    probe: Option<probe::ProbeTimes>,
}

impl Rep {
    fn failures(&self) -> u64 {
        self.oracle.failures()
    }

    /// Writes that converged: every write to a key the oracle found
    /// consistent (a diverged key counts each of its writes as failed).
    fn converged_writes(&self) -> u64 {
        self.writes.saturating_sub(self.oracle.diverged_writes)
    }

    fn tail(&self) -> report::Tail {
        tail(&self.readings.delays)
    }

    /// Completions within the SLO plus versions absorbed by batching (a
    /// newer version covered them within the earliest absorbed deadline),
    /// over both (fig22's accounting).
    fn slo_attainment(&self) -> f64 {
        let r = &self.readings;
        let all = r.completions + r.batched_skips;
        if all == 0 {
            return 1.0;
        }
        (r.within_slo + r.batched_skips) as f64 / all as f64
    }

    fn cost_per_gb(&self) -> f64 {
        self.readings.cost_usd[5] / self.gb
    }

    /// Everything that must repeat exactly for a seed: the simulated
    /// metrics, every count, and the oracle's verdict.
    fn fingerprint(&self) -> String {
        let r = &self.readings;
        let t = self.tail();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for d in &r.delays {
            h = (h ^ d.to_bits()).wrapping_mul(0x0100_0000_01b3);
        }
        format!(
            "p50={:?} {}={:?} slo={:?} cost_gb={:?} delays={}:{h:016x} completions={} within={} skips={} changelog={} previolated={} fallbacks={} aborted={} adjustments={} funcs={} local={} max_dists={} std_maxima={} faas={:?} cost={:?} run={:?} rounds={} messages={} oracle[{}]",
            percentile(&r.delays, 50.0),
            t.label,
            t.value,
            self.slo_attainment(),
            self.cost_per_gb(),
            r.delays.len(),
            r.completions,
            r.within_slo,
            r.batched_skips,
            r.changelog_applied,
            r.slo_previolated,
            r.read_fallbacks,
            r.aborted_retries,
            r.model_adjustments,
            r.funcs,
            r.local,
            r.cached_max_dists,
            r.cached_std_maxima,
            r.faas,
            r.cost_usd,
            r.run,
            self.rounds,
            self.messages,
            self.oracle.digest(),
        )
    }
}

/// One set-up of an unsharded workload, each phase in a span of `spans`.
fn set_up(
    kind: Kind,
    seed: u64,
    clock: &Clock,
    spans: &mut Spans,
    simtrace: bool,
) -> (Setup, workload::Inputs, workload::Installed) {
    let reference_s = host::reference_load();
    spans.enter(clock, "generate");
    let (inputs, generate_s) = clock.cpu_time(|| workload::generate_inputs(kind, seed));
    spans.exit(clock);
    spans.enter(clock, "build_model");
    let (model, build_model_s) = clock.cpu_time(|| workload::build_model(&inputs));
    spans.exit(clock);
    spans.enter(clock, "install");
    let (mut inst, install_s) = clock.cpu_time(|| workload::install(&inputs, model, simtrace));
    spans.exit(clock);
    spans.enter(clock, "schedule");
    let ((), schedule_s) = clock.cpu_time(|| workload::schedule(&mut inst, &inputs));
    spans.exit(clock);
    let setup = Setup {
        reference_s,
        generate_s,
        build_model_s,
        install_s,
        schedule_s,
    };
    (setup, inputs, inst)
}

/// Runs one repetition. `spans` receives the benchmark's own spans when
/// enabled (the discarded set-ups are not in spans of their own);
/// `simtrace` switches the simulator's tracer on.
fn run_rep(
    kind: Kind,
    seed: u64,
    clock: &Clock,
    spans: &mut Spans,
    with_probe: bool,
    simtrace: bool,
) -> Rep {
    if kind == Kind::ShardedReplay {
        return run_sharded_rep(seed, clock, spans, with_probe, simtrace, false);
    }
    let mut quiet = Spans::new(false);
    let mut setups: Vec<Setup> = (0..DISCARDED_BEFORE)
        .map(|_| set_up(kind, seed, clock, &mut quiet, simtrace).0)
        .collect();
    let (setup, inputs, mut inst) = set_up(kind, seed, clock, spans, simtrace);
    setups.push(setup);
    let probe = with_probe.then(|| {
        let installed = inst.service.model().clone();
        spans.scope(clock, "planner_probe", |_| {
            probe::probe(&installed, &inputs, &inst.regions, clock, PROBE_LIMIT)
        })
    });
    spans.enter(clock, "replay");
    let t0 = clock.now();
    let ((), replay_s) = clock.cpu_time(|| workload::replay(&mut inst.sim, clock, spans));
    let replay_wall_s = clock.now() - t0;
    spans.exit(clock);
    spans.enter(clock, "check");
    let readings = workload::read_world(&inst.sim, &inst.service, inputs.rules[0].slo);
    let oracle = oracle::check(
        &inst.sim,
        &inputs,
        &inst.regions,
        &inputs.writes_per_key(),
        &inst.log.borrow(),
    );
    spans.exit(clock);
    let (writes, reads) = inputs.counts();
    let (gb, size_line) = (inputs.gb_written(), inputs.size_line());
    drop((inputs, inst));
    setups.extend((0..DISCARDED_AFTER).map(|_| set_up(kind, seed, clock, &mut quiet, simtrace).0));
    Rep {
        setups,
        replay_s,
        replay_wall_s,
        writes,
        reads,
        gb,
        size_line,
        readings,
        oracle,
        rounds: 0,
        messages: 0,
        probe,
    }
}

/// The sharded repetition, on the threaded driver when `parallel`.
/// Profiling, install and scheduling of the measured run happen inside the
/// shards' builds.
fn run_sharded_rep(
    seed: u64,
    clock: &Clock,
    spans: &mut Spans,
    with_probe: bool,
    simtrace: bool,
    parallel: bool,
) -> Rep {
    // A discarded set-up builds both shards and drops them.
    let discarded = || {
        let reference_s = host::reference_load();
        let (inputs, generate_s) =
            clock.cpu_time(|| workload::generate_inputs(Kind::ShardedReplay, seed));
        let (build_model_s, install_s) = workload::setup_shards_only(&inputs, clock);
        Setup {
            reference_s,
            generate_s,
            build_model_s,
            install_s,
            schedule_s: 0.0,
        }
    };
    let mut setups: Vec<Setup> = (0..DISCARDED_BEFORE).map(|_| discarded()).collect();
    let reference_s = host::reference_load();
    spans.enter(clock, "generate");
    let (inputs, generate_s) =
        clock.cpu_time(|| workload::generate_inputs(Kind::ShardedReplay, seed));
    spans.exit(clock);
    // Each shard profiles its own model; the probe gets an identical one.
    let probe = with_probe.then(|| {
        let regions = workload::rule_regions(&inputs);
        spans.scope(clock, "planner_probe", |_| {
            let model = workload::build_model(&inputs);
            probe::probe(&model, &inputs, &regions, clock, PROBE_LIMIT)
        })
    });
    spans.enter(clock, "sharded_run");
    let out = workload::run_sharded(&inputs, clock, simtrace, parallel);
    spans.exit(clock);
    setups.push(Setup {
        reference_s,
        generate_s,
        build_model_s: out.build_model_s,
        install_s: out.install_s,
        schedule_s: 0.0,
    });
    let (writes, reads) = inputs.counts();
    setups.extend((0..DISCARDED_AFTER).map(|_| discarded()));
    Rep {
        setups,
        replay_s: out.replay_s,
        replay_wall_s: out.replay_wall_s,
        writes,
        reads,
        gb: inputs.gb_written(),
        size_line: inputs.size_line(),
        readings: out.readings,
        oracle: out.oracle,
        rounds: out.rounds,
        messages: out.messages,
        probe,
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    mode: String,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kw.insert(name.to_string(), value);
    }
    let get = |k: &str, default: &str| kw.get(k).cloned().unwrap_or_else(|| default.to_string());
    let workload = get("workload", "trace_replay");
    let kind = Kind::parse(&workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?}; one of {:?}",
            workload::NAMES
        )
    })?;
    Ok(Args {
        kind,
        seed: get("seed", "2026")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds", "10")
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        mode: get("mode", "run"),
        spans_out: kw.get("spans-out").cloned(),
    })
}

/// Runs repetitions while another one still fits in `--seconds` (at least
/// one), failing if any repetition's fingerprint differs from the first.
fn measure(args: &Args, clock: &Clock) -> Result<Vec<Rep>, String> {
    let start = clock.now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let t0 = clock.now();
        let rep = run_rep(
            args.kind,
            args.seed,
            clock,
            &mut Spans::new(false),
            false,
            false,
        );
        let took = clock.now() - t0;
        if let Some(first) = reps.first() {
            let (a, b) = (first.fingerprint(), rep.fingerprint());
            if a != b {
                return Err(format!(
                    "repetition {} diverged from the first:\n  {a}\n  {b}",
                    reps.len()
                ));
            }
        }
        reps.push(rep);
        if clock.now() - start + took > args.seconds {
            return Ok(reps);
        }
    }
}

/// Median of `f` over every set-up of every repetition.
fn setup_median(reps: &[Rep], f: impl Fn(&Setup) -> f64) -> f64 {
    median(
        &reps
            .iter()
            .flat_map(|r| r.setups.iter().map(&f))
            .collect::<Vec<_>>(),
    )
}

fn e2e_metrics(reps: &[Rep]) -> Vec<(String, f64, &'static str)> {
    let first = &reps[0];
    let per = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let t = first.tail();
    // Set-up time in units of the reference load timed beside each set-up:
    // the machine's speed, which drifts by tens of percent between minutes
    // on a shared host, cancels out.
    let setup_raw_s = setup_median(reps, Setup::total);
    let reference_s = setup_median(reps, |s| s.reference_s);
    vec![
        (
            "records_per_s".into(),
            per(&|r| r.converged_writes() as f64 / r.replay_s),
            "1/s",
        ),
        (
            "setup_s".into(),
            setup_raw_s * REFERENCE_NOMINAL_S / reference_s,
            "s",
        ),
        ("setup_raw_s".into(), setup_raw_s, "s"),
        ("reference_s".into(), reference_s, "s"),
        ("peak_rss_mb".into(), host::proc_status_mb("VmHWM"), "MB"),
        (
            "failed_ratio".into(),
            first.failures() as f64 / (first.writes + first.reads) as f64,
            "ratio",
        ),
        (
            "sim_delay_p50_s".into(),
            percentile(&first.readings.delays, 50.0),
            "s",
        ),
        ("sim_delay_tail_s".into(), t.value, "s"),
        ("sim_slo_attainment".into(), first.slo_attainment(), "ratio"),
        ("sim_cost_usd_per_gb".into(), first.cost_per_gb(), "usd/GB"),
    ]
}

fn layer_metrics(reps: &[Rep], traced: &Rep) -> Vec<(String, f64, &'static str)> {
    let r = &traced.readings;
    let per = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let replay_s = per(&|r| r.replay_s);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let probe = traced.probe.as_ref().expect("the traced repetition probes");
    let (fast, slo, dist) = (&probe.fastest_us, &probe.slo_us, &probe.dist_us);
    let mut out: Vec<(String, f64, &'static str)> = vec![
        (
            "traces.generate_s".into(),
            setup_median(reps, |s| s.generate_s),
            "s",
        ),
        (
            "traces.schedule_s".into(),
            setup_median(reps, |s| s.schedule_s),
            "s",
        ),
        (
            "profiler.build_model_s".into(),
            setup_median(reps, |s| s.build_model_s),
            "s",
        ),
        (
            "service.install_s".into(),
            setup_median(reps, |s| s.install_s),
            "s",
        ),
        ("service.completions".into(), r.completions as f64, "count"),
        (
            "service.batched_skips".into(),
            r.batched_skips as f64,
            "count",
        ),
        (
            "service.changelog_applied".into(),
            r.changelog_applied as f64,
            "count",
        ),
        (
            "service.slo_previolated".into(),
            r.slo_previolated as f64,
            "count",
        ),
        (
            "service.read_fallbacks".into(),
            r.read_fallbacks as f64,
            "count",
        ),
        (
            "service.aborted_retries".into(),
            r.aborted_retries as f64,
            "count",
        ),
        (
            "service.useful_ratio".into(),
            ratio(r.completions, r.completions + r.aborted_retries),
            "ratio",
        ),
        (
            "logger.model_adjustments".into(),
            r.model_adjustments as f64,
            "count",
        ),
        (
            "planner.fastest_plan_us.p50".into(),
            percentile(fast, 50.0),
            "us",
        ),
        (
            "planner.fastest_plan_us.p99".into(),
            percentile(fast, 99.0),
            "us",
        ),
        (
            "planner.slo_plan_us.p50".into(),
            percentile(slo, 50.0),
            "us",
        ),
        (
            "planner.slo_plan_us.p99".into(),
            percentile(slo, 99.0),
            "us",
        ),
        (
            "model.t_rep_dist_us.p50".into(),
            percentile(dist, 50.0),
            "us",
        ),
        (
            "model.t_rep_dist_us.p99".into(),
            percentile(dist, 99.0),
            "us",
        ),
        (
            "model.cached_max_dists".into(),
            r.cached_max_dists as f64,
            "count",
        ),
        (
            "model.cached_std_maxima".into(),
            r.cached_std_maxima as f64,
            "count",
        ),
        (
            "engine.funcs_per_record".into(),
            ratio(r.funcs, r.completions),
            "count",
        ),
        (
            "engine.local_share".into(),
            ratio(r.local, r.completions),
            "ratio",
        ),
    ];
    let f = &r.faas;
    out.extend([
        ("faas.attempts".into(), f[0] as f64, "count"),
        ("faas.cold_starts".into(), f[1] as f64, "count"),
        ("faas.warm_ratio".into(), ratio(f[2], f[1] + f[2]), "ratio"),
        ("faas.throttled".into(), f[3] as f64, "count"),
        ("faas.retries".into(), f[4] as f64, "count"),
        ("faas.timeouts".into(), f[5] as f64, "count"),
    ]);
    for (i, name) in workload::COST_FIELDS[..5].iter().enumerate() {
        out.push((format!("cost.{name}_usd"), r.cost_usd[i], "usd"));
    }
    out.extend([
        (
            "simkernel.events_per_record".into(),
            ratio(r.run.executed, traced.writes),
            "count",
        ),
        (
            "simkernel.host_ns_per_event".into(),
            replay_s * 1e9 / r.run.executed.max(1) as f64,
            "ns",
        ),
        (
            "simkernel.events_cancelled".into(),
            r.run.cancelled as f64,
            "count",
        ),
        (
            "simkernel.peak_live_depth".into(),
            r.run.peak_live_depth as f64,
            "count",
        ),
        ("shard.rounds".into(), traced.rounds as f64, "count"),
        ("shard.messages".into(), traced.messages as f64, "count"),
        (
            "shard.events_per_round".into(),
            ratio(r.run.executed, traced.rounds),
            "count",
        ),
        (
            "shard.round_us".into(),
            if traced.rounds == 0 {
                0.0
            } else {
                replay_s * 1e6 / traced.rounds as f64
            },
            "us",
        ),
    ]);
    out
}

fn rep_json(rep: &Rep) -> Obj {
    let t = rep.tail();
    Obj::new()
        .int("writes", rep.writes)
        .int("reads", rep.reads)
        .int("failed", rep.failures())
        .num("gb_written", rep.gb)
        .str("size", &rep.size_line)
        .int("delay_samples", rep.readings.delays.len() as u64)
        .str("tail_percentile", t.label)
        .int("tail_beyond", t.beyond as u64)
        .num("replay_s", rep.replay_s)
        .num("replay_wall_s", rep.replay_wall_s)
        .str("fingerprint", &rep.fingerprint())
        .raw(
            "oracle_failures",
            format!(
                "[{}]",
                rep.oracle
                    .descriptions()
                    .take(20)
                    .map(|s| report::json_str(s))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let clock = Clock::start();
    let result = match args.mode.as_str() {
        "run" => measure(&args, &clock).map(|reps| {
            rep_json(&reps[0])
                .str("mode", "run")
                .int("reps", reps.len() as u64)
                .raw("metrics", report::metrics_json(&e2e_metrics(&reps)))
        }),
        "traced" => traced(&args, &clock),
        "simtrace" => {
            let rep = run_rep(
                args.kind,
                args.seed,
                &clock,
                &mut Spans::new(false),
                false,
                true,
            );
            Ok(rep_json(&rep)
                .str("mode", "simtrace")
                .num("peak_rss_mb", host::proc_status_mb("VmHWM")))
        }
        other => Err(format!("unknown mode {other:?}")),
    };
    match result {
        Ok(obj) => println!("PERFBENCH {}", obj.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Untraced repetitions for `--seconds`, then one repetition inside the
/// benchmark's spans (for `sharded_replay` followed by one run on the
/// threaded shard driver, in a span of its own). The traced repetition must
/// reproduce the untraced fingerprint exactly; its spans go to
/// `--spans-out`.
fn traced(args: &Args, clock: &Clock) -> Result<Obj, String> {
    let reps = measure(args, clock)?;
    let mut spans = Spans::new(true);
    // The traced work's wall-clock, read outside the span recorder so the
    // spans' self times can be checked against it.
    let ((rep, threaded), wall) = clock.time(|| {
        spans.scope(clock, "traced_run", |spans| {
            let rep = run_rep(args.kind, args.seed, clock, spans, true, false);
            // The threaded shard driver, once: it must reproduce the
            // sequential driver's fingerprint, and its wall-clock is
            // compared with the sequential driver's.
            let threaded = (args.kind == Kind::ShardedReplay).then(|| {
                spans.scope(clock, "threaded_run", |_| {
                    run_sharded_rep(args.seed, clock, &mut Spans::new(false), false, false, true)
                })
            });
            (rep, threaded)
        })
    });
    let a = reps[0].fingerprint();
    let b = rep.fingerprint();
    if a != b {
        return Err(format!(
            "the traced repetition diverged from the untraced ones:\n  {a}\n  {b}"
        ));
    }
    let mut threaded_replay_s = 0.0;
    if let Some(t) = &threaded {
        let fp = t.fingerprint();
        if fp != a {
            return Err(format!(
                "the threaded shard driver diverged:\n  {a}\n  {fp}"
            ));
        }
        threaded_replay_s = t.replay_wall_s;
    }
    let list = spans.spans();
    let span_problems = host::check_nesting(list);
    let self_sum: f64 = host::self_times(list).iter().sum();
    if let Some(path) = &args.spans_out {
        std::fs::write(path, host::chrome_json(list))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    // Self time per span name, largest first, for the human-readable report.
    let mut by_name: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for (s, self_s) in list.iter().zip(host::self_times(list)) {
        let key = if s.name.starts_with("sim.minute.") {
            "sim.minute.*"
        } else {
            s.name.as_str()
        };
        let e = by_name.entry(key.to_string()).or_default();
        e.0 += self_s;
        e.1 += 1;
    }
    let mut rows: Vec<(String, f64, u64)> =
        by_name.into_iter().map(|(k, (s, n))| (k, s, n)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let table = rows
        .iter()
        .map(|(k, s, n)| {
            Obj::new()
                .str("span", k)
                .num("self_s", *s)
                .int("count", *n)
                .render()
        })
        .collect::<Vec<_>>()
        .join(",");
    let mut layer = layer_metrics(&reps, &rep);
    let sequential_replay_s = median(&reps.iter().map(|r| r.replay_wall_s).collect::<Vec<_>>());
    let speedup = if threaded_replay_s > 0.0 {
        sequential_replay_s / threaded_replay_s
    } else {
        0.0
    };
    layer.push(("shard.threaded_replay_s".into(), threaded_replay_s, "s"));
    layer.push(("shard.threaded_speedup".into(), speedup, "ratio"));
    layer.push((
        "process.peak_rss_mb".into(),
        host::proc_status_mb("VmHWM"),
        "MB",
    ));
    layer.push(("traced.wall_s".into(), wall, "s"));
    layer.push(("traced.self_time_sum_s".into(), self_sum, "s"));
    Ok(rep_json(&rep)
        .str("mode", "traced")
        .int("reps", reps.len() as u64)
        .num(
            "untraced_replay_s",
            median(&reps.iter().map(|r| r.replay_s).collect::<Vec<_>>()),
        )
        .raw("self_times", format!("[{table}]"))
        .raw(
            "span_problems",
            format!(
                "[{}]",
                span_problems
                    .iter()
                    .map(|s| report::json_str(s))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
        .raw("metrics", report::metrics_json(&layer)))
}
