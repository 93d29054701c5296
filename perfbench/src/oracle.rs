//! The correctness oracle, run after every replay. It reads the final state
//! from outside the program, through the object stores' public `stat`:
//!
//! * every key the workload wrote has the same ETag at source and
//!   destination, or is absent at both;
//! * no multipart upload is left open in any region the workload touches;
//! * every consumer read returned a version the source actually wrote, and
//!   every read that found no object ran while the source had none.

use std::collections::{BTreeMap, BTreeSet};

use cloudsim::objstore::StoreError;
use cloudsim::{CloudSim, RegionId};
use simkernel::SimTime;

use crate::workload::{Inputs, OpLog};

#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    pub keys_checked: u64,
    /// Keys whose replica differs from the source, with both states.
    pub diverged: Vec<String>,
    /// The workload's writes to the diverged keys.
    pub diverged_writes: u64,
    pub open_uploads: u64,
    pub reads_checked: u64,
    /// Reads that returned a version the source never wrote, or found no
    /// object while the source held one throughout.
    pub bad_reads: Vec<String>,
    /// Reads that failed outright, after their retries.
    pub failed_reads: Vec<String>,
    /// COPY/concat requests refused before they reached the store.
    pub refused_writes: Vec<String>,
}

impl OracleReport {
    /// Failed operations, as counted in `failed_ratio`: every write to a
    /// diverged key, each open upload, and each failed or wrong read or
    /// refused write.
    pub fn failures(&self) -> u64 {
        self.diverged_writes
            + self.open_uploads
            + self.bad_reads.len() as u64
            + self.failed_reads.len() as u64
            + self.refused_writes.len() as u64
    }

    pub fn merge(&mut self, o: &OracleReport) {
        self.keys_checked += o.keys_checked;
        self.diverged.extend(o.diverged.iter().cloned());
        self.diverged_writes += o.diverged_writes;
        self.open_uploads += o.open_uploads;
        self.reads_checked += o.reads_checked;
        self.bad_reads.extend(o.bad_reads.iter().cloned());
        self.failed_reads.extend(o.failed_reads.iter().cloned());
        self.refused_writes.extend(o.refused_writes.iter().cloned());
    }

    /// Every failure found, one line each.
    pub fn descriptions(&self) -> impl Iterator<Item = &String> {
        self.diverged
            .iter()
            .chain(&self.bad_reads)
            .chain(&self.failed_reads)
            .chain(&self.refused_writes)
    }

    /// A one-line digest of the report, for the determinism gate.
    pub fn digest(&self) -> String {
        format!(
            "keys={} diverged={}/{} open={} reads={} bad={} failed={} refused={}",
            self.keys_checked,
            self.diverged.len(),
            self.diverged_writes,
            self.open_uploads,
            self.reads_checked,
            self.bad_reads.len(),
            self.failed_reads.len(),
            self.refused_writes.len()
        )
    }
}

fn describe(r: &Result<cloudsim::objstore::ObjectStat, StoreError>) -> String {
    match r {
        Ok(s) => format!("etag {:#x} ({} B)", s.etag.0, s.size),
        Err(e) => format!("{e:?}"),
    }
}

/// Whether the source held no version of the key at some instant of
/// `[from, to]`, by its presence log.
fn absent_during(events: Option<&Vec<(SimTime, bool)>>, from: SimTime, to: SimTime) -> bool {
    let Some(events) = events else {
        return true;
    };
    let at_start = events
        .iter()
        .take_while(|(t, _)| *t <= from)
        .last()
        .is_some_and(|&(_, present)| present);
    !at_start
        || events
            .iter()
            .any(|&(t, present)| !present && t > from && t <= to)
}

/// Checks `keys` (as `(rule, key)` with the workload's writes to each) in
/// `sim`'s final state.
pub fn check(
    sim: &CloudSim,
    inputs: &Inputs,
    regions: &[(RegionId, RegionId)],
    keys: &BTreeMap<(usize, String), u64>,
    log: &OpLog,
) -> OracleReport {
    let mut out = OracleReport::default();
    for ((rule, key), writes) in keys {
        let spec = &inputs.rules[*rule];
        let (src, dst) = regions[*rule];
        let a = sim.world.objstore(src).stat(&spec.src_bucket, key);
        let b = sim.world.objstore(dst).stat(&spec.dst_bucket, key);
        let same = match (&a, &b) {
            (Ok(x), Ok(y)) => x.etag == y.etag,
            (Err(StoreError::NoSuchKey), Err(StoreError::NoSuchKey)) => true,
            _ => false,
        };
        out.keys_checked += 1;
        if !same {
            out.diverged_writes += writes;
            out.diverged.push(format!(
                "rule {rule} key {key}: source {}, destination {}",
                describe(&a),
                describe(&b)
            ));
        }
    }
    let touched: BTreeSet<RegionId> = regions.iter().flat_map(|&(s, d)| [s, d]).collect();
    for r in touched {
        out.open_uploads += sim.world.objstore(r).open_multipart_uploads().len() as u64;
    }
    for (rule, key, etag) in &log.reads {
        out.reads_checked += 1;
        let written = log.written.get(&(*rule, key.clone()));
        if !written.is_some_and(|w| w.contains(etag)) {
            out.bad_reads
                .push(format!("rule {rule} key {key}: read etag {etag:#x}"));
        }
    }
    for (rule, key, from, to) in &log.absent_reads {
        out.reads_checked += 1;
        if !absent_during(log.presence.get(&(*rule, key.clone())), *from, *to) {
            out.bad_reads.push(format!(
                "rule {rule} key {key}: read found no object from {from:?} to {to:?} while the source held one"
            ));
        }
    }
    out.reads_checked += log.read_failures.len() as u64;
    let describe = |(rule, key, e): &(usize, String, String)| format!("rule {rule} key {key}: {e}");
    out.failed_reads = log.read_failures.iter().map(describe).collect();
    out.refused_writes = log.refused.iter().map(describe).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Clock, Spans};
    use crate::workload::{self, Kind, Op, OpKind, Source};
    use cloudsim::objstore::Content;

    /// A small hot-overwrite run: a few keys, overwrites, a copy and reads.
    fn small_inputs() -> Inputs {
        let mut inputs = workload::generate_inputs(Kind::HotOverwrite, 2026);
        let put = |ms: u64, key: &str, size: u64| Op {
            at: SimTime::from_nanos(ms * 1_000_000),
            rule: 0,
            key: key.into(),
            kind: OpKind::Put { size },
        };
        let mut ops = vec![
            put(0, "a", 4 << 20),
            put(10, "b", 1 << 10),
            put(20, "c", 40 << 20),
            put(2_000, "a", 4 << 20),
            put(2_100, "b", 2 << 10),
        ];
        ops.push(Op {
            at: SimTime::from_nanos(3_000_000_000),
            rule: 0,
            key: "c".into(),
            kind: OpKind::Copy { from: "b".into() },
        });
        ops.push(Op {
            at: SimTime::from_nanos(60_000_000_000),
            rule: 0,
            key: "a".into(),
            kind: OpKind::Read,
        });
        inputs.source = Source::Ops(ops);
        inputs
    }

    #[test]
    fn absent_reads_are_checked_against_the_source_presence_log() {
        let t = |s: u64| SimTime::from_nanos(s * 1_000_000_000);
        let log = vec![(t(10), true), (t(20), false), (t(30), true)];
        // Never written, or not yet.
        assert!(absent_during(None, t(1), t(2)));
        assert!(absent_during(Some(&log), t(1), t(2)));
        // Present throughout.
        assert!(!absent_during(Some(&log), t(11), t(19)));
        assert!(!absent_during(Some(&log), t(31), t(40)));
        // A delete inside the read, or absent when it started.
        assert!(absent_during(Some(&log), t(15), t(20)));
        assert!(absent_during(Some(&log), t(25), t(35)));
    }

    #[test]
    fn oracle_passes_a_clean_run_and_reports_a_corrupted_replica() {
        let inputs = small_inputs();
        let model = workload::build_model(&inputs);
        let mut inst = workload::install(&inputs, model, false);
        workload::schedule(&mut inst, &inputs);
        let clock = Clock::start();
        workload::replay(&mut inst.sim, &clock, &mut Spans::new(false));
        let keys = inputs.writes_per_key();
        let log = inst.log.borrow();
        let clean = check(&inst.sim, &inputs, &inst.regions, &keys, &log);
        assert_eq!(clean.failures(), 0, "{clean:?}");
        assert_eq!((clean.keys_checked, clean.reads_checked), (3, 1));

        // Overwrite one replica behind the service's back.
        let (_, dst) = inst.regions[0];
        let now = inst.sim.now();
        let blob = inst.sim.world.alloc_blob();
        inst.sim
            .world
            .objstore_mut(dst)
            .apply_put(
                &inputs.rules[0].dst_bucket,
                "b",
                Content::fresh(blob, 7),
                now,
            )
            .expect("destination bucket exists");
        let corrupt = check(&inst.sim, &inputs, &inst.regions, &keys, &log);
        // Both writes to "b" count as failed.
        assert_eq!(corrupt.failures(), 2, "{corrupt:?}");
        assert!(corrupt.diverged[0].contains("key b"), "{corrupt:?}");
    }
}
