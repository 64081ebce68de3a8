//! Command-line entry point of the host-clock benchmark.
//!
//! `solo-perfbench --workload <frame|stream|serve> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints, as its last stdout line,
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it is
//! the full record (host fingerprint, sample counts, tail percentile),
//! which is also written under `.bench_out/`, with the spans of a traced
//! run. `solo-perfbench compare ...` compares saved records.

use std::path::Path;
use std::process::ExitCode;

use solo_perfbench::{run, Args, OUT_DIR};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(solo_perfbench::compare::main(&argv[1..]) as u8);
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: solo-perfbench --workload <frame|stream|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let result = match run(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let dir = Path::new(OUT_DIR);
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(dir.join(format!("record-{stem}.json")), &result.record)?;
        for (kind, tr) in &result.tracers {
            tr.write_json(&dir.join(format!("spans-{stem}-{}.json", kind.name())))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("could not write {OUT_DIR}: {e}");
    }
    println!("{}", result.record);
    println!("{}", result.line);
    ExitCode::SUCCESS
}
