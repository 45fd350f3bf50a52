//! CI bench gate: structured tolerance bands over the committed
//! `BENCH_*.json` files.
//!
//! This bin promotes what used to be scattered `awk`/`sed` tripwires in
//! `verify.sh` into one declarative table ([`CHECKS`]): each row names a
//! file, a derived metric, a direction and a bound. Everything checked
//! here is **simulation-determined** (sim-time quantities committed at
//! full-window settings), so every violation is fatal — a regression in
//! these numbers means the model changed, not that the CI box was busy.
//! Host-time performance is perfbench's business, not the gate's.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p es2-bench --bin bench_gate
//! ```
//!
//! Each file is read once with `es2_metrics::json`. Exit status is
//! non-zero iff any row fails (missing or malformed file — the reader's
//! error and byte offset are printed —, missing metric, or out-of-band
//! value).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;

use es2_metrics::json::{self, Json};

// ---------------------------------------------------------------------
// The gate table
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Dir {
    /// Metric must be `>= target`.
    AtLeast,
    /// Metric must be `<= target`.
    AtMost,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dir::AtLeast => ">=",
            Dir::AtMost => "<=",
        })
    }
}

struct Check {
    /// The artifact the row reads; a missing or malformed file fails it.
    file: &'static str,
    /// Human-readable metric name, unique within the table.
    metric: &'static str,
    dir: Dir,
    target: f64,
    /// The metric, read from the parsed `file`.
    extract: fn(&Json) -> Option<f64>,
}

/// Every number bound to `key` anywhere in `doc`, in document order.
fn nums(doc: &Json, key: &str, out: &mut Vec<f64>) {
    match doc {
        Json::Obj(fields) => {
            for (k, v) in fields {
                if k == key {
                    out.extend(v.as_f64());
                }
                nums(v, key, out);
            }
        }
        Json::Arr(items) => items.iter().for_each(|v| nums(v, key, out)),
        _ => {}
    }
}

/// Maximum over every numeric occurrence of `key` in `doc`.
fn max_num(doc: &Json, key: &str) -> Option<f64> {
    let mut all = Vec::new();
    nums(doc, key, &mut all);
    all.into_iter().reduce(f64::max)
}

/// Minimum over every numeric occurrence of `key` in `doc`.
fn min_num(doc: &Json, key: &str) -> Option<f64> {
    let mut all = Vec::new();
    nums(doc, key, &mut all);
    all.into_iter().reduce(f64::min)
}

fn field_num(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_f64)
}

/// Committed full-window mq sweep: rx p99 of `policy` at the densest
/// (128 VM) cells; extra `(key, value)` constraints narrow the cell.
fn mq_p99(doc: &Json, policy: &str, narrow: &[(&str, f64)]) -> Option<f64> {
    doc.get("cells")?.items().iter().find_map(|c| {
        let dense = field_num(c, "vms") == Some(128.0);
        let pol = c.get("policy").and_then(Json::as_str) == Some(policy);
        let nar = narrow.iter().all(|(k, v)| field_num(c, k) == Some(*v));
        (dense && pol && nar).then(|| field_num(c, "rx_p99_us"))?
    })
}

/// Sum of quarantine + reset damage on every VM except the declared
/// hostile one, across all cells (the containment invariant).
fn hostile_leakage(doc: &Json) -> Option<f64> {
    let hostile = field_num(doc, "hostile_vm")?;
    let mut leaked = 0.0;
    for cell in doc.get("cells")?.items() {
        for vm in cell.get("per_vm")?.items() {
            if field_num(vm, "vm") == Some(hostile) {
                continue;
            }
            leaked += field_num(vm, "quarantines")? + field_num(vm, "resets")?;
        }
    }
    Some(leaked)
}

/// Number of chaos-topology SLO breaches carrying a non-null cause
/// annotation (the causal-attribution invariant).
fn attributed_chaos_breaches(doc: &Json) -> Option<f64> {
    let mut attributed = 0.0;
    for cell in doc.get("cells")?.items() {
        if cell.get("topology").and_then(Json::as_str) != Some("chaos") {
            continue;
        }
        for b in cell.get("breaches")?.items() {
            if !matches!(b.get("cause"), Some(Json::Null) | None) {
                attributed += 1.0;
            }
        }
    }
    Some(attributed)
}

/// The declarative gate: per-metric direction and bound in one table.
const CHECKS: &[Check] = &[
    Check {
        file: "BENCH_mq.json",
        metric: "passthrough/mux rx p99 ratio @128 VMs",
        dir: Dir::AtMost,
        target: 1.0,
        extract: |doc| {
            let pt = mq_p99(doc, "passthrough", &[])?;
            let mux = mq_p99(doc, "mux", &[("queues", 2.0), ("workers", 1.0)])?;
            (mux > 0.0).then_some(pt / mux)
        },
    },
    Check {
        file: "BENCH_migrate.json",
        metric: "worst blackout p99 (us)",
        dir: Dir::AtMost,
        target: 400.0,
        extract: |doc| max_num(doc, "blackout_p99_us"),
    },
    Check {
        file: "BENCH_migrate.json",
        metric: "worst blackout p99 > 0 (migrations ran)",
        dir: Dir::AtLeast,
        target: 1.0,
        extract: |doc| max_num(doc, "blackout_p99_us"),
    },
    Check {
        file: "BENCH_hostile.json",
        metric: "quarantine/reset damage leaked to neighbors",
        dir: Dir::AtMost,
        target: 0.0,
        extract: hostile_leakage,
    },
    Check {
        file: "BENCH_telemetry.json",
        metric: "chaos SLO breaches attributed to a fault",
        dir: Dir::AtLeast,
        target: 1.0,
        extract: attributed_chaos_breaches,
    },
    Check {
        // The conservation invariant: after the full control-plane
        // fault diet (placement failures, stuck boots, a host crash,
        // an aborted migration, departures), not one slot, core, vhost
        // worker, ring entry or vector may leak — in any config cell.
        file: "BENCH_churn.json",
        metric: "orphaned resources after churn fault diet",
        dir: Dir::AtMost,
        target: 0.0,
        extract: |doc| max_num(doc, "orphans"),
    },
    Check {
        file: "BENCH_churn.json",
        metric: "typed control-plane errors during churn",
        dir: Dir::AtMost,
        target: 0.0,
        extract: |doc| max_num(doc, "ctl_errors"),
    },
    Check {
        // Transient rejections (overload, stalled boots) must be
        // recoverable: at least 40% of arrivals that entered the retry
        // queue eventually admit, in every config cell.
        file: "BENCH_churn.json",
        metric: "worst churn retry-success ratio",
        dir: Dir::AtLeast,
        target: 0.4,
        extract: |doc| min_num(doc, "retry_success_ratio"),
    },
    Check {
        // Admission-to-boot p99 stays bounded even under brownout
        // deferrals and backoff retries (committed value ~18.7 ms).
        file: "BENCH_churn.json",
        metric: "worst churn boot p99 (us)",
        dir: Dir::AtMost,
        target: 25_000.0,
        extract: |doc| max_num(doc, "boot_p99_us"),
    },
];

/// Read and parse one artifact, or say why it could not be.
fn load(path: impl AsRef<Path>) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    json::parse(&text).map_err(|e| format!("malformed: {e}"))
}

/// Whether one row passes over its parsed file, and its report line.
fn verdict(c: &Check, doc: &Result<Json, String>) -> (bool, String) {
    let v = match doc.as_ref().map(c.extract) {
        Ok(Some(v)) => v,
        Ok(None) => {
            return (
                false,
                format!("  [FAIL] {}: {} (missing metric)", c.file, c.metric),
            )
        }
        Err(e) => return (false, format!("  [FAIL] {}: {} ({e})", c.file, c.metric)),
    };
    let ok = match c.dir {
        Dir::AtLeast => v >= c.target,
        Dir::AtMost => v <= c.target,
    };
    let line = format!(
        "  [{verdict}] {file}: {metric} = {v:.6} (want {dir} {bound})",
        verdict = if ok { "PASS" } else { "FAIL" },
        file = c.file,
        metric = c.metric,
        dir = c.dir,
        bound = c.target,
    );
    (ok, line)
}

fn main() {
    let mut docs = BTreeMap::new();
    for c in CHECKS {
        docs.entry(c.file).or_insert_with(|| load(c.file));
    }
    let mut fatal = 0u32;
    println!("bench gate: {} checks over committed BENCH_*.json", CHECKS.len());
    for c in CHECKS {
        let (ok, line) = verdict(c, &docs[c.file]);
        fatal += u32::from(!ok);
        println!("{line}");
    }
    if fatal > 0 {
        eprintln!("bench gate: {fatal} fatal violation(s)");
        std::process::exit(1);
    }
    println!("bench gate: ok");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        json::parse(text).unwrap()
    }

    #[test]
    fn hostile_leakage_ignores_the_hostile_vm() {
        let doc = parse(
            r#"{"hostile_vm": 1, "cells": [{"per_vm": [
                {"vm": 0, "quarantines": 0, "resets": 0},
                {"vm": 1, "quarantines": 9, "resets": 9},
                {"vm": 2, "quarantines": 1, "resets": 0}
            ]}]}"#,
        );
        assert_eq!(hostile_leakage(&doc), Some(1.0));
    }

    #[test]
    fn attribution_counts_non_null_causes_in_chaos_cells_only() {
        let doc = parse(
            r#"{"cells": [
                {"topology": "chaos", "breaches": [
                    {"cause": null}, {"cause": {"kind": "pi-degrade"}}
                ]},
                {"topology": "mq", "breaches": [{"cause": {"kind": "x"}}]}
            ]}"#,
        );
        assert_eq!(attributed_chaos_breaches(&doc), Some(1.0));
    }

    #[test]
    fn malformed_artifact_fails_with_the_byte_offset() {
        let doc = json::parse(r#"{"cells": [1,]}"#).map_err(|e| format!("malformed: {e}"));
        let (ok, line) = verdict(&CHECKS[0], &doc);
        assert!(!ok);
        assert!(
            line.contains("malformed: expected a value at byte 13"),
            "{line}"
        );
        let (ok, line) = verdict(&CHECKS[0], &load("no/such/BENCH_mq.json"));
        assert!(!ok);
        assert!(line.contains("cannot read"), "{line}");
    }

    /// Every committed artifact is in the writer's canonical form (so a
    /// hand edit or a stale layout fails here), and every gate row
    /// passes over the real files.
    #[test]
    fn committed_artifacts_are_canonical_and_pass_the_gate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut names: Vec<String> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        names.sort();
        assert_eq!(names.len(), 7, "{names:?}");
        for name in &names {
            let text = fs::read_to_string(root.join(name)).unwrap();
            let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                format!("{doc}\n") == text,
                "{name} is not in canonical form"
            );
        }
        for c in CHECKS {
            let (ok, line) = verdict(c, &load(root.join(c.file)));
            assert!(ok, "{line}");
        }
    }
}
