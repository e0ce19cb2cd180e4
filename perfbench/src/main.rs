//! Wall-clock benchmark of the live csd-sentry pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-burst --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Three workloads (see `README.md` for why each was chosen and which
//! ones `BENCHMARK.json` gates):
//! `corpus-burst` (closed loop, in-memory sentry), `fleet-paced` (open
//! loop over the socket, event bus and supervised durable service) and
//! `durable-crash` (closed loop through the durable sentry, then a crash
//! and recovery). Inputs come from `--seed`; the model is the seeded
//! random-weight paper model, so the offline oracle checks the live
//! pipeline against the engine itself.
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` times each
//! public call into the layers from the benchmark's side and prints
//! every per-layer metric instead. The last line of standard output is
//! the result as one JSON object. The benchmark refuses to run while any
//! `CSD_*` environment variable is set.

mod burst;
mod crash;
mod drive;
mod fleet;
mod host;
mod inputs;
mod report;
mod samples;
mod stats;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use report::{Report, END_TO_END, PER_LAYER};
use samples::{Samples, CHILDREN};

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["corpus-burst", "fleet-paced", "durable-crash"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Measure in this process and write the samples here (how an
    /// untraced run invokes its measuring processes).
    pub samples_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        samples_out: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--samples-out" => args.samples_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Runs the workload in this process; untraced runs also fill `s`.
fn run_here(args: &Args, work: &Path, r: &mut Report, s: &mut Samples) {
    let weights = inputs::model_weights();
    match args.workload.as_str() {
        "corpus-burst" => burst::run(args, &weights, r, s),
        "fleet-paced" => fleet::run(args, &weights, work, r, s),
        _ => crash::run(args, &weights, work, r, s),
    }
    s.peak_rss_mb.push(host::peak_rss_mb());
}

/// Measures in [`CHILDREN`] fresh processes of this program, one after
/// another, each with an equal share of the budget, echoing their output
/// and pooling their samples. Exits the program if a child fails.
fn run_children(args: &Args, work: &Path, r: &mut Report, s: &mut Samples) {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    for k in 0..CHILDREN {
        let out_path = work.join(format!("child-{k}.samples"));
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / CHILDREN as f64).to_string()])
            .args(["--trace", "0"])
            .arg("--samples-out")
            .arg(&out_path)
            .stderr(Stdio::inherit())
            .output()
            .expect("start a measuring process");
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            println!("[child {k}] {line}");
        }
        let text = fs::read_to_string(&out_path);
        match (out.status.success(), text) {
            (true, Ok(text)) => match Samples::from_text(&text, r) {
                Ok(child) => s.extend(&child),
                Err(e) => fail(work, &format!("child {k} wrote unreadable samples: {e}")),
            },
            (ok, _) => fail(
                work,
                &format!("child {k} failed ({}, exited ok: {ok})", out.status),
            ),
        }
    }
}

/// Reports `why`, removes the work directory and exits without a result.
fn fail(work: &Path, why: &str) -> ! {
    eprintln!("perfbench: {why}");
    let _ = fs::remove_dir_all(work);
    std::process::exit(1);
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let set = host::csd_env_vars();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {set:?} set; every number must describe the default configuration"
        );
        std::process::exit(2);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    fs::create_dir_all(&work).expect("create the work directory");
    let mut r = Report::default();
    let mut s = Samples::default();
    match (&args.samples_out, args.trace) {
        (_, true) | (Some(_), false) => run_here(&args, &work, &mut r, &mut s),
        (None, false) => run_children(&args, &work, &mut r, &mut s),
    }
    if let Some(path) = &args.samples_out {
        if let Err(e) = s.write(&r, path) {
            fail(&work, &format!("write samples to {}: {e}", path.display()));
        }
    }
    let _ = fs::remove_dir_all(&work);
    let _ = fs::remove_dir(".bench_work");
    r.check(r.attempted > 0, "no process was sent");
    if args.trace {
        r.set("fail_share", r.failed as f64 / r.attempted.max(1) as f64);
        r.print(&PER_LAYER);
    } else {
        s.set_end_to_end(&mut r);
        r.print(&END_TO_END);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload fleet-paced --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, "fleet-paced");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload corpus-burst --trace 2").is_err());
        assert!(parse("--workload corpus-burst --seconds 0").is_err());
        assert!(parse("--workload corpus-burst --seed").is_err());
        assert!(parse("--workload corpus-burst --bogus 1").is_err());
    }
}
