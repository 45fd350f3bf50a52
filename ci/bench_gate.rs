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
//! Exit status is non-zero iff any row fails (missing file, missing
//! metric, or out-of-band value).

use std::fmt;
use std::fs;

// ---------------------------------------------------------------------
// Minimal JSON reader
// ---------------------------------------------------------------------
//
// The workspace hand-writes its JSON artifacts (no serde anywhere), so
// the gate hand-reads them: a small recursive-descent parser over the
// committed files, enough for objects/arrays/strings/numbers and the
// escape sequences our own writers emit.

#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str_is(&self, want: &str) -> bool {
        matches!(self, Json::Str(s) if s == want)
    }

    fn field_num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::num)
    }

    /// Collect every numeric value bound to `key` anywhere in the
    /// document, in document order.
    fn collect_nums(&self, key: &str, out: &mut Vec<f64>) {
        match self {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    if k == key {
                        if let Some(n) = v.num() {
                            out.push(n);
                        }
                    }
                    v.collect_nums(key, out);
                }
            }
            Json::Arr(items) => {
                for v in items {
                    v.collect_nums(key, out);
                }
            }
            _ => {}
        }
    }

    /// Maximum over every numeric occurrence of `key` in the document.
    fn max_num(&self, key: &str) -> Option<f64> {
        let mut all = Vec::new();
        self.collect_nums(key, &mut all);
        all.into_iter().fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Minimum over every numeric occurrence of `key` in the document.
    fn min_num(&self, key: &str) -> Option<f64> {
        let mut all = Vec::new();
        self.collect_nums(key, &mut all);
        all.into_iter().fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { b: s.as_bytes(), i: 0 }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("eof in escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            // Our writers never emit \u escapes; decode
                            // the BMP case and move on.
                            let hex = self.b.get(self.i..self.i + 4).ok_or("eof in \\u")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected eof")? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.expect(b':')?;
                    let v = self.value()?;
                    fields.push((k, v));
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => {
                let start = self.i;
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number '{text}' at byte {start}"))
            }
        }
    }
}

pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// File cache
// ---------------------------------------------------------------------

/// Lazily-parsed JSON artifacts, keyed by repo-relative path.
pub struct Files {
    loaded: std::cell::RefCell<Vec<(String, Option<Json>)>>,
}

impl Files {
    fn new() -> Self {
        Files { loaded: std::cell::RefCell::new(Vec::new()) }
    }

    /// Parse (once) and return a clone of the document, or `None` if
    /// the file is missing or malformed.
    fn doc(&self, path: &str) -> Option<Json> {
        let mut cache = self.loaded.borrow_mut();
        if let Some((_, doc)) = cache.iter().find(|(p, _)| p == path) {
            return doc.clone();
        }
        let doc = fs::read_to_string(path).ok().and_then(|s| parse(&s).ok());
        cache.push((path.to_string(), doc.clone()));
        doc
    }
}

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
    /// Primary artifact; a missing file fails the row.
    file: &'static str,
    /// Human-readable metric name, unique within the table.
    metric: &'static str,
    dir: Dir,
    target: f64,
    extract: fn(&Files) -> Option<f64>,
}

/// Committed full-window mq sweep: rx p99 of `policy` at the densest
/// (128 VM) cells; extra `(key, value)` constraints narrow the cell.
fn mq_p99(doc: &Json, policy: &str, narrow: &[(&str, f64)]) -> Option<f64> {
    doc.get("cells")?.arr().iter().find_map(|c| {
        let dense = c.field_num("vms") == Some(128.0);
        let pol = c.get("policy").is_some_and(|p| p.str_is(policy));
        let nar = narrow.iter().all(|(k, v)| c.field_num(k) == Some(*v));
        (dense && pol && nar).then(|| c.field_num("rx_p99_us"))?
    })
}

/// Sum of quarantine + reset damage on every VM except the declared
/// hostile one, across all cells (the containment invariant).
fn hostile_leakage(doc: &Json) -> Option<f64> {
    let hostile = doc.field_num("hostile_vm")?;
    let mut leaked = 0.0;
    for cell in doc.get("cells")?.arr() {
        for vm in cell.get("per_vm")?.arr() {
            if vm.field_num("vm") == Some(hostile) {
                continue;
            }
            leaked += vm.field_num("quarantines")? + vm.field_num("resets")?;
        }
    }
    Some(leaked)
}

/// Number of chaos-topology SLO breaches carrying a non-null cause
/// annotation (the causal-attribution invariant).
fn attributed_chaos_breaches(doc: &Json) -> Option<f64> {
    let mut attributed = 0.0;
    for cell in doc.get("cells")?.arr() {
        if !cell.get("topology").is_some_and(|t| t.str_is("chaos")) {
            continue;
        }
        for b in cell.get("breaches")?.arr() {
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
        extract: |f| {
            let doc = f.doc("BENCH_mq.json")?;
            let pt = mq_p99(&doc, "passthrough", &[])?;
            let mux = mq_p99(&doc, "mux", &[("queues", 2.0), ("workers", 1.0)])?;
            (mux > 0.0).then_some(pt / mux)
        },
    },
    Check {
        file: "BENCH_migrate.json",
        metric: "worst blackout p99 (us)",
        dir: Dir::AtMost,
        target: 400.0,
        extract: |f| f.doc("BENCH_migrate.json")?.max_num("blackout_p99_us"),
    },
    Check {
        file: "BENCH_migrate.json",
        metric: "worst blackout p99 > 0 (migrations ran)",
        dir: Dir::AtLeast,
        target: 1.0,
        extract: |f| f.doc("BENCH_migrate.json")?.max_num("blackout_p99_us"),
    },
    Check {
        file: "BENCH_hostile.json",
        metric: "quarantine/reset damage leaked to neighbors",
        dir: Dir::AtMost,
        target: 0.0,
        extract: |f| hostile_leakage(&f.doc("BENCH_hostile.json")?),
    },
    Check {
        file: "BENCH_telemetry.json",
        metric: "chaos SLO breaches attributed to a fault",
        dir: Dir::AtLeast,
        target: 1.0,
        extract: |f| attributed_chaos_breaches(&f.doc("BENCH_telemetry.json")?),
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
        extract: |f| f.doc("BENCH_churn.json")?.max_num("orphans"),
    },
    Check {
        file: "BENCH_churn.json",
        metric: "typed control-plane errors during churn",
        dir: Dir::AtMost,
        target: 0.0,
        extract: |f| f.doc("BENCH_churn.json")?.max_num("ctl_errors"),
    },
    Check {
        // Transient rejections (overload, stalled boots) must be
        // recoverable: at least 40% of arrivals that entered the retry
        // queue eventually admit, in every config cell.
        file: "BENCH_churn.json",
        metric: "worst churn retry-success ratio",
        dir: Dir::AtLeast,
        target: 0.4,
        extract: |f| f.doc("BENCH_churn.json")?.min_num("retry_success_ratio"),
    },
    Check {
        // Admission-to-boot p99 stays bounded even under brownout
        // deferrals and backoff retries (committed value ~18.7 ms).
        file: "BENCH_churn.json",
        metric: "worst churn boot p99 (us)",
        dir: Dir::AtMost,
        target: 25_000.0,
        extract: |f| f.doc("BENCH_churn.json")?.max_num("boot_p99_us"),
    },
];

fn main() {
    let files = Files::new();
    let mut fatal = 0u32;
    println!("bench gate: {} checks over committed BENCH_*.json", CHECKS.len());
    for c in CHECKS {
        match (c.extract)(&files) {
            Some(v) => {
                let ok = match c.dir {
                    Dir::AtLeast => v >= c.target,
                    Dir::AtMost => v <= c.target,
                };
                if !ok {
                    fatal += 1;
                }
                println!(
                    "  [{verdict}] {file}: {metric} = {v:.6} (want {dir} {bound})",
                    verdict = if ok { "PASS" } else { "FAIL" },
                    file = c.file,
                    metric = c.metric,
                    dir = c.dir,
                    bound = c.target,
                );
            }
            None => {
                fatal += 1;
                println!("  [FAIL] {}: {} (missing file or metric)", c.file, c.metric);
            }
        }
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

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": [1, 2.5, {"b": "x", "c": null, "d": true}], "e": -3e2}"#).unwrap();
        assert_eq!(doc.get("e").unwrap().num(), Some(-300.0));
        let arr = doc.get("a").unwrap().arr();
        assert_eq!(arr[1].num(), Some(2.5));
        assert!(arr[2].get("b").unwrap().str_is("x"));
        assert!(matches!(arr[2].get("c"), Some(Json::Null)));
        assert!(matches!(arr[2].get("d"), Some(Json::Bool(true))));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} extra").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn hostile_leakage_ignores_the_hostile_vm() {
        let doc = parse(
            r#"{"hostile_vm": 1, "cells": [{"per_vm": [
                {"vm": 0, "quarantines": 0, "resets": 0},
                {"vm": 1, "quarantines": 9, "resets": 9},
                {"vm": 2, "quarantines": 1, "resets": 0}
            ]}]}"#,
        )
        .unwrap();
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
        )
        .unwrap();
        assert_eq!(attributed_chaos_breaches(&doc), Some(1.0));
    }
}
