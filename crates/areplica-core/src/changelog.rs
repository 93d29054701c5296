//! Changelog propagation (§5.4).
//!
//! Object storage only sees opaque PUTs, so a COPY or concatenation of
//! existing objects normally forces a full cross-region transfer. AReplica
//! users (or program analysis) register a *changelog hint* in the cloud
//! database keyed by the new version's ETag; when the orchestrator finds a
//! hint whose sources already exist at the destination with matching ETags,
//! it applies the operation server-side at the destination — no WAN bytes.
//!
//! Correctness guard: the hint carries the source versions' ETags, and the
//! destination-side apply re-validates them (`If-Match`), so a stale
//! destination falls back to full replication.

use cloudapi::clouddb::{Item, Value};
use cloudapi::objstore::{Content, ETag, StoreError};
use cloudapi::RegionId;

use crate::backend::{Backend, Exec};

/// Errors from the user-side changelog helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangelogError {
    /// A referenced source object is missing or unreadable, so no hint can
    /// be registered and no local write happens.
    SourceUnavailable {
        /// The source key that could not be read.
        key: String,
        /// The underlying store error.
        cause: StoreError,
    },
}

impl std::fmt::Display for ChangelogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChangelogError::SourceUnavailable { key, cause } => {
                write!(f, "changelog source {key:?} unavailable: {cause}")
            }
        }
    }
}

impl std::error::Error for ChangelogError {}

/// The DB table holding changelog hints (in the source region).
pub const CHANGELOG_TABLE: &str = "areplica_changelog";

/// A registered change operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeOp {
    /// The new object is a byte-identical copy of `src_key`@`src_etag`.
    Copy {
        /// Source object key (same bucket).
        src_key: String,
        /// Source version.
        src_etag: ETag,
    },
    /// The new object is the concatenation of the listed versions.
    Concat {
        /// Ordered source parts (key, version).
        sources: Vec<(String, ETag)>,
    },
}

/// The changelog entry key for a new version of `key` with `etag`.
pub fn entry_key(bucket: &str, key: &str, etag: ETag) -> String {
    format!("{bucket}/{key}#{:016x}", etag.0)
}

/// Encodes an operation as a DB item.
pub fn encode(op: &ChangeOp) -> Item {
    let mut item = Item::new();
    match op {
        ChangeOp::Copy { src_key, src_etag } => {
            item.insert("op".into(), Value::Str("copy".into()));
            item.insert("src_key".into(), Value::Str(src_key.clone()));
            item.insert("src_etag".into(), Value::Uint(src_etag.0));
        }
        ChangeOp::Concat { sources } => {
            item.insert("op".into(), Value::Str("concat".into()));
            item.insert(
                "keys".into(),
                Value::List(sources.iter().map(|(k, _)| Value::Str(k.clone())).collect()),
            );
            item.insert(
                "etags".into(),
                Value::List(sources.iter().map(|(_, e)| Value::Uint(e.0)).collect()),
            );
        }
    }
    item
}

/// Decodes a DB item back into an operation.
pub fn decode(item: &Item) -> Option<ChangeOp> {
    match item.get("op")?.as_str()? {
        "copy" => Some(ChangeOp::Copy {
            src_key: item.get("src_key")?.as_str()?.to_string(),
            src_etag: ETag(item.get("src_etag")?.as_uint()?),
        }),
        "concat" => {
            let keys = item.get("keys")?.as_list()?;
            let etags = item.get("etags")?.as_list()?;
            if keys.len() != etags.len() || keys.is_empty() {
                return None;
            }
            let sources = keys
                .iter()
                .zip(etags)
                .map(|(k, e)| Some((k.as_str()?.to_string(), ETag(e.as_uint()?))))
                .collect::<Option<Vec<_>>>()?;
            Some(ChangeOp::Concat { sources })
        }
        _ => None,
    }
}

/// User-side helper: copies `src_key` to `dst_key` in the source bucket,
/// registering the changelog hint *before* the write so the replication
/// pipeline can find it.
///
/// `cb` receives the new version's ETag. Fails up front (before any hint is
/// registered) when the source object cannot be statted. If the source is
/// overwritten between the stat and the copy, the copy's `If-Match` refuses
/// it: the hint is removed again and `cb` is not called.
pub fn user_copy<B: Backend>(
    sim: &mut B,
    region: RegionId,
    bucket: String,
    src_key: String,
    dst_key: String,
    cb: impl FnOnce(&mut B, ETag) + 'static,
) -> Result<(), ChangelogError> {
    let stat = sim.stat_now(region, &bucket, &src_key).map_err(|cause| {
        ChangelogError::SourceUnavailable {
            key: src_key.clone(),
            cause,
        }
    })?;
    // A server-side copy produces byte-identical content, so the new
    // version's ETag equals the source's.
    let hint_key = entry_key(&bucket, &dst_key, stat.etag);
    let op = ChangeOp::Copy {
        src_key: src_key.clone(),
        src_etag: stat.etag,
    };
    let exec = Exec::Platform {
        region,
        mbps: 1000.0,
    };
    sim.db_transact(
        exec,
        region,
        CHANGELOG_TABLE.into(),
        hint_key.clone(),
        move |slot| {
            *slot = Some(encode(&op));
        },
        move |sim, ()| {
            sim.copy_object(
                exec,
                region,
                bucket,
                src_key,
                dst_key,
                Some(stat.etag),
                move |sim, applied| match applied {
                    Ok(applied) => cb(sim, applied.etag),
                    // Refused, e.g. by `If-Match` once the source changed
                    // since the stat: no copy was made, so no hint may
                    // describe one.
                    Err(_) => sim.db_transact(
                        exec,
                        region,
                        CHANGELOG_TABLE.into(),
                        hint_key,
                        |slot| *slot = None,
                        |_, ()| {},
                    ),
                },
            );
        },
    );
    Ok(())
}

/// User-side helper: concatenates existing objects into `dst_key`,
/// registering the changelog hint first. Fails up front (before any hint is
/// registered) when a source object cannot be read.
pub fn user_concat<B: Backend>(
    sim: &mut B,
    region: RegionId,
    bucket: String,
    src_keys: Vec<String>,
    dst_key: String,
    cb: impl FnOnce(&mut B, ETag) + 'static,
) -> Result<(), ChangelogError> {
    assert!(!src_keys.is_empty());
    let mut sources = Vec::with_capacity(src_keys.len());
    let mut contents: Vec<Content> = Vec::with_capacity(src_keys.len());
    for k in &src_keys {
        let (content, etag) = sim.read_full_now(region, &bucket, k).map_err(|cause| {
            ChangelogError::SourceUnavailable {
                key: k.clone(),
                cause,
            }
        })?;
        sources.push((k.clone(), etag));
        contents.push(content);
    }
    let assembled = Content::concat(contents.iter());
    let new_etag = ETag::of(&assembled);
    let hint_key = entry_key(&bucket, &dst_key, new_etag);
    let op = ChangeOp::Concat { sources };
    let exec = Exec::Platform {
        region,
        mbps: 1000.0,
    };
    sim.db_transact(
        exec,
        region,
        CHANGELOG_TABLE.into(),
        hint_key,
        move |slot| {
            *slot = Some(encode(&op));
        },
        move |sim, ()| {
            let applied = sim
                .user_put_content(region, &bucket, &dst_key, assembled)
                // xlint::allow(no-unwrap-in-lib, the sources were readable above, so the bucket exists; a user PUT into an existing bucket cannot fail)
                .expect("concat put");
            cb(sim, applied.etag);
        },
    );
    Ok(())
}

/// Destination-side application of a changelog hint.
///
/// Verifies every source version at the destination and applies the
/// operation server-side. `cb` receives `Ok(etag)` on success or `Err(())`
/// when the destination is stale (caller falls back to full replication).
pub fn apply_at_destination<B: Backend>(
    sim: &mut B,
    exec: Exec,
    dst_region: RegionId,
    dst_bucket: String,
    dst_key: String,
    op: ChangeOp,
    cb: impl FnOnce(&mut B, Result<ETag, ()>) + 'static,
) {
    match op {
        ChangeOp::Copy { src_key, src_etag } => {
            sim.copy_object(
                exec,
                dst_region,
                dst_bucket,
                src_key,
                dst_key,
                Some(src_etag),
                move |sim, applied| match applied {
                    Ok(a) => cb(sim, Ok(a.etag)),
                    Err(_) => cb(sim, Err(())),
                },
            );
        }
        ChangeOp::Concat { sources } => {
            // Server-side validation + assembly, modelled as one control-
            // plane operation per source (like S3 UploadPartCopy).
            sim.stat_object(
                exec,
                dst_region,
                dst_bucket.clone(),
                sources[0].0.clone(),
                move |sim, _| {
                    let mut contents = Vec::with_capacity(sources.len());
                    for (key, expect) in &sources {
                        match sim.read_full_now(dst_region, &dst_bucket, key) {
                            Ok((content, etag)) if etag == *expect => contents.push(content),
                            _ => {
                                cb(sim, Err(()));
                                return;
                            }
                        }
                    }
                    let assembled = Content::concat(contents.iter());
                    sim.put_object(
                        exec,
                        dst_region,
                        dst_bucket,
                        dst_key,
                        assembled,
                        move |sim, applied| match applied {
                            Ok(a) => cb(sim, Ok(a.etag)),
                            Err(_) => cb(sim, Err(())),
                        },
                    );
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_copy() {
        let op = ChangeOp::Copy {
            src_key: "a".into(),
            src_etag: ETag(42),
        };
        assert_eq!(decode(&encode(&op)), Some(op));
    }

    #[test]
    fn encode_decode_concat() {
        let op = ChangeOp::Concat {
            sources: vec![("a".into(), ETag(1)), ("b".into(), ETag(2))],
        };
        assert_eq!(decode(&encode(&op)), Some(op));
    }

    #[test]
    fn decode_rejects_malformed() {
        let mut item = Item::new();
        item.insert("op".into(), Value::Str("teleport".into()));
        assert_eq!(decode(&item), None);
        let empty_concat = encode(&ChangeOp::Concat { sources: vec![] });
        assert_eq!(decode(&empty_concat), None);
    }

    #[test]
    fn entry_keys_disambiguate() {
        assert_ne!(entry_key("b", "k", ETag(1)), entry_key("b", "k", ETag(2)));
        assert_ne!(entry_key("b", "k1", ETag(1)), entry_key("b", "k2", ETag(1)));
        assert_ne!(entry_key("b1", "k", ETag(1)), entry_key("b2", "k", ETag(1)));
    }
}
