//! Ledger files and tables: the machine block, the document `run` and
//! `trace` write, and the tables they print.

use crate::record::Record;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use ca_obs::Jv;

/// What rayon is in this build. `Cargo.toml` patches it to the sequential
/// stand-in under `stubs/`, because the registry is not reachable where
/// the benchmark builds; whoever removes that patch changes this line.
pub const RAYON: &str =
    "offline sequential stand-in (stubs/rayon): one thread, RAYON_NUM_THREADS has no effect";

/// The thread count every workload's process is given:
/// `min(available_parallelism, 4)`.
pub fn rayon_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(4)
}

/// Size of the largest cache `cpu0` reports, in bytes.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        let size = size.trim();
        let (digits, unit) =
            size.split_at(size.find(|c: char| !c.is_ascii_digit()).unwrap_or(size.len()));
        let Ok(n) = digits.parse::<u64>() else { continue };
        let bytes = match unit {
            "K" => n << 10,
            "M" => n << 20,
            "G" => n << 30,
            _ => n,
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Where the numbers were taken.
pub fn machine() -> Jv {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    Jv::Obj(vec![
        (
            "nproc".into(),
            Jv::Int(std::thread::available_parallelism().map_or(1, usize::from) as i128),
        ),
        ("rayon_num_threads_env".into(), Jv::Int(rayon_threads() as i128)),
        ("rayon".into(), Jv::Str(RAYON.into())),
        ("llc_bytes".into(), llc_bytes().map_or(Jv::Null, |b| Jv::Int(i128::from(b)))),
        ("rustc".into(), Jv::Str(rustc)),
        ("os".into(), Jv::Str(format!("{} {}", std::env::consts::OS, std::env::consts::ARCH))),
    ])
}

/// The document `run` (`mode` "run") and `trace` (`mode` "trace") write.
pub fn document(mode: &str, seed: u64, seconds: f64, quick: bool, records: &[Record]) -> Jv {
    Jv::Obj(vec![
        ("schema".into(), Jv::Str(format!("ca-perf/{mode}"))),
        ("schema_version".into(), Jv::Int(1)),
        ("seed".into(), Jv::Int(i128::from(seed))),
        ("seconds".into(), Jv::Num(seconds)),
        ("quick".into(), Jv::Bool(quick)),
        ("machine".into(), machine()),
        ("workloads".into(), Jv::Arr(records.iter().map(Record::to_jv).collect())),
    ])
}

/// The records of a document written by [`document`].
pub fn records_of(doc: &Jv) -> Result<Vec<Record>, String> {
    doc.get("workloads")
        .and_then(Jv::as_arr)
        .ok_or("the document has no 'workloads' array")?
        .iter()
        .map(Record::from_jv)
        .collect()
}

pub fn read_document(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    records_of(&Jv::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

/// Seven significant digits without an exponent for ordinary magnitudes.
pub fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if !(1e-4..1e7).contains(&a) {
        format!("{v:.4e}")
    } else if a >= 1000.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

/// One workload's metrics, one per line, by name with unit: what a single
/// `--workload` invocation prints before its result line.
pub fn print_record(rec: &Record) {
    println!(
        "workload {}  seed {}  attempted {}  failed {}  fail_frac {}",
        rec.workload,
        rec.seed,
        rec.attempted,
        rec.failed,
        fmt_value(rec.fail_frac())
    );
    for m in &rec.metrics {
        let detail = match &m.reps {
            Some(s) => format!(
                "  (best of n={}; median {} q1 {} q3 {} spread {:.2}%)",
                s.n,
                fmt_value(s.median),
                fmt_value(s.q1),
                fmt_value(s.q3),
                100.0 * s.spread()
            ),
            None if m.exact => "  (exact)".to_string(),
            None => String::new(),
        };
        println!("  {:<28} {:>14} {:<8}{detail}", m.name, fmt_value(m.value), m.unit);
    }
    for (name, value) in &rec.checks {
        println!("  {name:<28} {value}");
    }
}

/// All workloads side by side: one row per metric.
pub fn print_table(records: &[Record], traced: bool) {
    let names: Vec<(&str, &str, Better, Option<f64>)> = if traced {
        PER_LAYER.iter().map(|&(n, u, b)| (n, u, b, None)).collect()
    } else {
        END_TO_END.iter().map(|d| (d.name, d.unit, d.better, Some(d.bound))).collect()
    };
    print!("{:<30} {:<8} {:<7}", "metric", "unit", "better");
    if !traced {
        print!(" {:>6}", "bound");
    }
    for r in records {
        print!(" {:>14}", r.workload);
    }
    println!();
    for (name, unit, better, bound) in names {
        print!("{name:<30} {unit:<8} {:<7}", better.as_str());
        if let Some(b) = bound {
            print!(" {:>5.0}%", 100.0 * b);
        }
        for r in records {
            print!(" {:>14}", r.metric(name).map_or("-".to_string(), |m| fmt_value(m.value)));
        }
        println!();
    }
    if !traced {
        print!("{:<30} {:<8} {:<7} {:>6}", "fail_frac", "ratio", "lower", "0");
        for r in records {
            print!(" {:>14}", fmt_value(r.fail_frac()));
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_parses_back_with_ca_obs() {
        let mut rec = Record::new("g3_exch", 3, 1.0);
        rec.check(None);
        let doc = document("run", 3, 1.0, true, &[rec.clone()]);
        let parsed = Jv::parse(&doc.render_pretty()).unwrap();
        assert_eq!(parsed.get("schema").and_then(Jv::as_str), Some("ca-perf/run"));
        assert_eq!(
            parsed.get("machine").and_then(|m| m.get("rayon")).and_then(Jv::as_str),
            Some(RAYON)
        );
        assert_eq!(records_of(&parsed).unwrap(), vec![rec]);
        assert!(records_of(&Jv::Null).is_err());
    }

    #[test]
    fn values_print_with_their_digits() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(0.075876), "0.075876");
        assert_eq!(fmt_value(3.7425), "3.7425");
        assert_eq!(fmt_value(544147792.0), "5.4415e8");
        assert_eq!(fmt_value(2379.0), "2379.0");
    }
}
