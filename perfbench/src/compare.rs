//! Compares two sets of records of one workload, refusing records whose
//! host fingerprints differ.
//!
//! `solo-perfbench compare --base <record>... --new <record>... [--bench
//! BENCHMARK.json]` prints, per metric, the median of each set and the
//! change, and flags an end-to-end metric that got worse by more than its
//! bound in `BENCHMARK.json`.

use serde::{Deserialize, Error, Value};

/// A parsed JSON document.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Raw(v.clone()))
    }
}

/// Why a comparison was not made.
#[derive(Debug, PartialEq)]
pub enum Refusal {
    /// Bad arguments or unreadable records.
    Usage(String),
    /// The records were measured on different hosts or workloads.
    Mismatch(String),
}

/// The outcome of a comparison.
#[derive(Debug)]
pub struct Comparison {
    /// The printable table.
    pub table: String,
    /// End-to-end metrics worse than their bound.
    pub regressions: Vec<String>,
}

/// Parses a JSON document into a value tree.
pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Raw>(text)
        .map(|r| r.0)
        .map_err(|e| e.to_string())
}

fn parse(text: &str, what: &str) -> Result<Value, Refusal> {
    parse_json(text).map_err(|e| Refusal::Usage(format!("{what}: {e}")))
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn metric_values(record: &Value) -> Vec<(String, f64)> {
    match record.get_field("metrics") {
        Ok(Value::Map(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), num(v.get_field("value").ok()?)?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(bench: &Value) -> Vec<(String, String, f64)> {
    let Ok(list) = bench.get_field("end_to_end").and_then(Value::as_seq) else {
        return Vec::new();
    };
    list.iter()
        .filter_map(|m| {
            let name = match m.get_field("name").ok()? {
                Value::Str(s) => s.clone(),
                _ => return None,
            };
            let better = match m.get_field("better").ok()? {
                Value::Str(s) => s.clone(),
                _ => return None,
            };
            Some((name, better, num(m.get_field("bound").ok()?)?))
        })
        .collect()
}

/// Compares record texts. `bench` is the text of `BENCHMARK.json`, if any.
pub fn compare_texts(
    base: &[String],
    new: &[String],
    bench: Option<&str>,
) -> Result<Comparison, Refusal> {
    if base.is_empty() || new.is_empty() {
        return Err(Refusal::Usage("need at least one record per side".into()));
    }
    let parse_all = |texts: &[String], side: &str| -> Result<Vec<Value>, Refusal> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| parse(t, &format!("{side} record {i}")))
            .collect()
    };
    let (base, new) = (parse_all(base, "base")?, parse_all(new, "new")?);
    let key = |r: &Value, field: &str| r.get_field(field).ok().cloned();
    let first = &base[0];
    for r in base.iter().chain(&new) {
        for field in ["fingerprint", "workload", "trace"] {
            if key(r, field) != key(first, field) || key(r, field).is_none() {
                return Err(Refusal::Mismatch(format!(
                    "records differ in `{field}`: {:?} vs {:?}",
                    key(first, field),
                    key(r, field)
                )));
            }
        }
    }
    let bounds = match bench {
        Some(text) => bounds(&parse(text, "BENCHMARK.json")?),
        None => Vec::new(),
    };
    let median = |set: &[Value], name: &str| {
        let v: Vec<f64> = set
            .iter()
            .filter_map(|r| metric_values(r).into_iter().find(|(n, _)| n == name))
            .map(|(_, x)| x)
            .collect();
        (!v.is_empty()).then(|| crate::stats::median(&v))
    };
    let mut table = format!(
        "{:<32} {:>14} {:>14} {:>9}  verdict\n",
        "metric", "base", "new", "change"
    );
    let mut regressions = Vec::new();
    for (name, _) in metric_values(first) {
        let (Some(b), Some(n)) = (median(&base, &name), median(&new, &name)) else {
            continue;
        };
        let change = if b == 0.0 { 0.0 } else { n / b - 1.0 };
        let verdict = match bounds.iter().find(|(m, _, _)| *m == name) {
            Some((_, better, bound)) => {
                let worse = if better == "higher" { -change } else { change };
                if worse > *bound {
                    regressions.push(name.clone());
                    "worse beyond bound"
                } else if worse < 0.0 {
                    "better"
                } else {
                    "within bound"
                }
            }
            None => "-",
        };
        table.push_str(&format!(
            "{name:<32} {b:>14.6} {n:>14.6} {:>8.2}%  {verdict}\n",
            change * 100.0
        ));
    }
    Ok(Comparison { table, regressions })
}

/// Runs the `compare` subcommand; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let mut base = Vec::new();
    let mut new = Vec::new();
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut side = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--base" => side = Some(0),
            "--new" => side = Some(1),
            "--bench" => match it.next() {
                Some(p) => bench_path = p.clone(),
                None => side = None,
            },
            path => match side {
                Some(0) => base.push(path.to_string()),
                Some(_) => new.push(path.to_string()),
                None => {
                    eprintln!(
                        "usage: compare --base <record>... --new <record>... [--bench <path>]"
                    );
                    return 2;
                }
            },
        }
    }
    let read = |paths: &[String]| -> Result<Vec<String>, String> {
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
            .collect()
    };
    let (base, new) = match (read(&base), read(&new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let bench = std::fs::read_to_string(&bench_path).ok();
    match compare_texts(&base, &new, bench.as_deref()) {
        Ok(c) => {
            print!("{}", c.table);
            i32::from(!c.regressions.is_empty())
        }
        Err(Refusal::Usage(e)) => {
            eprintln!("compare: {e}");
            2
        }
        Err(Refusal::Mismatch(e)) => {
            eprintln!("compare refused: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cpu: &str, latency: f64) -> String {
        format!(
            "{{\"workload\":\"frame\",\"trace\":false,\"fingerprint\":{{\"cpu_model\":\"{cpu}\",\"simd_tier\":\"avx2\",\"available_parallelism\":2,\"pool_width\":2}},\"metrics\":{{\"latency_ms_p50\":{{\"value\":{latency},\"unit\":\"ms\"}}}}}}"
        )
    }

    const BENCH: &str = "{\"end_to_end\":[{\"name\":\"latency_ms_p50\",\"unit\":\"ms\",\"better\":\"lower\",\"bound\":0.1}]}";

    #[test]
    fn refuses_records_from_different_hosts() {
        let r = compare_texts(
            &[record("cpu A", 1.0)],
            &[record("cpu B", 1.0)],
            Some(BENCH),
        );
        assert!(matches!(r, Err(Refusal::Mismatch(_))), "{r:?}");
    }

    #[test]
    fn flags_a_regression_beyond_the_bound_only() {
        let base = [record("cpu A", 1.0), record("cpu A", 1.02)];
        let ok = compare_texts(&base, &[record("cpu A", 1.05)], Some(BENCH)).expect("same host");
        assert!(ok.regressions.is_empty(), "{}", ok.table);
        let bad = compare_texts(&base, &[record("cpu A", 1.5)], Some(BENCH)).expect("same host");
        assert_eq!(bad.regressions, vec!["latency_ms_p50".to_string()]);
    }
}
