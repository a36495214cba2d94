//! The CluDistream benchmark: end-to-end metrics of three workloads and,
//! in a separate traced run, a ledger of the wall time spent in each
//! layer of the pipeline. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload drift|fanin|tcp|all --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when an output check fails.

mod drift;
mod fanin;
mod inputs;
mod ledger;
mod metrics;
mod pipeline;
mod stats;
mod tcp;

use ledger::Ledger;
use metrics::{Pass, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload drift|fanin|tcp|all --seed N --seconds S --trace 0|1";

/// Set-up repeats for at least this long, and at least [`SETUPS_MIN`]
/// times; `setup_s` is the median. A fast set-up is timed many times, so
/// its median does not rest on a few short samples.
const SETUP_S_MIN: f64 = 1.0;
const SETUPS_MIN: usize = 3;

/// The traced run fails below this share of wall time accounted for by
/// layer self times on the in-process workloads (ROADMAP aim 1). `tcp`
/// times its round from outside, so its coverage is reported, not gated.
const COVERAGE_MIN: f64 = 0.95;

/// Where the traced run writes its last traced pass for Perfetto,
/// relative to the working directory.
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["drift", "fanin", "tcp", "all"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// What one workload reports.
struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    /// Printed after the untraced run's table, outside the JSON.
    also: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Runs set-up repeatedly and returns the last inputs with the median
/// set-up time.
fn setup<T>(make: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut inputs = None;
    let start = Instant::now();
    while times.len() < SETUPS_MIN || start.elapsed().as_secs_f64() < SETUP_S_MIN {
        drop(inputs.take());
        let begin = Instant::now();
        inputs = Some(std::hint::black_box(make()));
        times.push(begin.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one set-up"), stats::median(&times))
}

/// Passes of one run: untraced ones always; in the traced run, traced
/// ones alternate with them so both see the same machine state.
struct Measured<T> {
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    ledger: Ledger,
    /// What the first pass over each input set returned besides its
    /// metrics.
    firsts: Vec<T>,
    variants: usize,
}

/// Closed loop: passes run back to back, cycling through `variants`
/// input sets, until `seconds` have elapsed and the cycle is whole.
fn measure<T>(
    seconds: f64,
    trace: bool,
    variants: usize,
    mut pass: impl FnMut(usize, &mut Ledger) -> (Pass, T),
) -> Measured<T> {
    let budget = Duration::from_secs_f64(seconds);
    let mut off = Ledger::new(false);
    let mut ledger = Ledger::new(true);
    let (mut untraced, mut traced, mut firsts) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for i in 0.. {
        let variant = i % variants;
        let (p, extra) = pass(variant, &mut off);
        untraced.push(p);
        if i < variants {
            firsts.push(extra);
        }
        if trace {
            traced.push(pass(variant, &mut ledger).0);
        }
        if variant == variants - 1 && start.elapsed() >= budget {
            break;
        }
    }
    Measured { untraced, traced, ledger, firsts, variants }
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Outputs that must repeat exactly whenever a pass reruns an input set.
/// (Wire bytes may not: a socket round can retransmit under load.)
fn check_repeats(passes: &[Pass], variants: usize, problems: &mut Vec<String>) {
    for (i, (p, first)) in passes.iter().skip(variants).zip(passes).enumerate() {
        if (p.records, p.applied, p.heldout_ll.to_bits())
            != (first.records, first.applied, first.heldout_ll.to_bits())
        {
            problems
                .push(format!("pass {} differs from pass {i} on the same inputs", i + variants));
        }
    }
}

fn finish<T>(
    args: &Args,
    workload: &str,
    m: &Measured<T>,
    setup_s: f64,
    p_new: f64,
    extra: &[(&'static str, f64)],
    mut problems: Vec<String>,
) -> Outcome {
    check_repeats(&m.untraced, m.variants, &mut problems);
    if let Some(p) = m.untraced.iter().find(|p| !p.heldout_ll.is_finite()) {
        problems.push(format!("heldout_ll is not finite: {}", p.heldout_ll));
    }
    for warning in metrics::unresolved(&m.untraced) {
        eprintln!("{workload}: warning: {warning}");
    }
    let all = m.untraced.iter().chain(&m.traced);
    let attempted = all.clone().map(|p| p.attempted).sum();
    let failed = all.map(|p| p.failed).sum();
    let also = if args.trace { Vec::new() } else { metrics::pipeline(&m.untraced, &m.traced) };
    let metrics = if args.trace {
        write_trace(workload, args.seed, m);
        let layers = metrics::per_layer(&m.ledger, &m.traced, &m.untraced, p_new, extra);
        let coverage = layers.iter().find(|(n, _)| *n == "trace.coverage").map_or(0.0, |l| l.1);
        if workload != "tcp" && coverage < COVERAGE_MIN {
            problems.push(format!("trace.coverage {coverage:.4} is below {COVERAGE_MIN}"));
        }
        layers
    } else {
        let mut e2e = metrics::end_to_end(&m.untraced, m.variants);
        e2e.push(("peak_rss_mb", peak_rss_mb()));
        e2e.push(("setup_s", setup_s));
        e2e
    };
    Outcome { metrics, also, attempted, failed, problems }
}

/// Writes the last traced pass as Chrome trace-event JSON for Perfetto.
fn write_trace<T>(workload: &str, seed: u64, m: &Measured<T>) {
    let Some(pass) = m.traced.last() else { return };
    let path = format!("{TRACE_DIR}/{workload}-seed{seed}.trace.json");
    let json = m.ledger.perfetto(pass.spans.clone());
    match std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("{workload}: trace of the last traced pass in {path}"),
        Err(e) => eprintln!("{workload}: could not write {path}: {e}"),
    }
}

fn run(workload: &str, args: &Args) -> Outcome {
    let mut problems = Vec::new();
    match workload {
        "drift" => {
            let (inputs, setup_s) = setup(|| inputs::drift(args.seed));
            let m =
                measure(args.seconds, args.trace, inputs.len(), |v, l| drift::pass(&inputs[v], l));
            for (inputs, wire) in inputs.iter().zip(&m.firsts) {
                if let Err(e) = drift::check_against_simulation(inputs, wire) {
                    problems.push(format!("drift output check: {e}"));
                }
            }
            finish(args, workload, &m, setup_s, drift::P_NEW, &[], problems)
        }
        "fanin" => {
            let (inputs, setup_s) = setup(|| inputs::fanin(args.seed));
            let m = measure(args.seconds, args.trace, 1, |_, l| (fanin::pass(&inputs, l), ()));
            let expected = 2 * inputs::FANIN_SITES as u64;
            if m.untraced.iter().any(|p| p.applied != expected) {
                problems.push(format!("fanin: a round applied fewer than {expected} synopses"));
            }
            finish(args, workload, &m, setup_s, 0.0, &[], problems)
        }
        "tcp" => {
            let (inputs, setup_s) = setup(|| inputs::tcp(args.seed));
            let expected: Vec<tcp::Replay> =
                inputs.iter().map(|i| tcp::replay(i, &mut Ledger::new(false))).collect();
            let m = measure(args.seconds, args.trace, inputs.len(), |v, l| {
                (tcp::pass(&inputs[v], &expected[v], l, &mut problems), ())
            });
            let mut extra = Vec::new();
            if args.trace {
                // The site's share of the round, from an in-process replay
                // of the same streams.
                let mut replays = Ledger::new(true);
                let counts: Vec<Vec<(&'static str, f64)>> =
                    inputs.iter().map(|i| tcp::replay(i, &mut replays).counts).collect();
                extra = metrics::layer_timings(replays.spans(), inputs.len(), tcp::P_NEW)
                    .into_iter()
                    .filter(|(name, _)| {
                        name.starts_with("remote.") || name.starts_with("protocol.")
                    })
                    .collect();
                extra.extend(metrics::mean_counts(&counts));
                let compute_s =
                    stats::mean(&expected.iter().map(|r| r.compute_s).collect::<Vec<_>>());
                let round_s =
                    stats::mean(&m.untraced.iter().map(|p| p.ingest_s).collect::<Vec<_>>());
                extra.push(("runtime.compute_s", compute_s));
                extra.push(("runtime.wait_share", 1.0 - compute_s / round_s));
            }
            finish(args, workload, &m, setup_s, tcp::P_NEW, &extra, problems)
        }
        _ => unreachable!("parse accepts only known workloads"),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["drift", "fanin", "tcp"],
        w => vec![w],
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut fields = Vec::new();
    for &workload in &workloads {
        let outcome = run(workload, &args);
        for problem in &outcome.problems {
            eprintln!("{workload}: CHECK FAILED: {problem}");
        }
        correct &= outcome.problems.is_empty();
        attempted += outcome.attempted;
        failed += outcome.failed;
        println!(
            "== {workload} (seed {}, {} s, trace {})",
            args.seed, args.seconds, args.trace as u8
        );
        for d in declared {
            let value = outcome
                .metrics
                .iter()
                .find(|(name, _)| *name == d.name)
                .map_or(f64::NAN, |(_, v)| *v);
            correct &= value.is_finite();
            let better = if d.higher_is_better { "higher" } else { "lower" };
            println!(
                "{workload:>6}  {:<34} {value:>16.6} {:<12} {better} is better",
                d.name, d.unit
            );
            let key = if workloads.len() > 1 {
                format!("{workload}.{}", d.name)
            } else {
                d.name.to_string()
            };
            fields.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(value),
                d.unit
            ));
        }
        for (name, value) in &outcome.also {
            let unit = PER_LAYER.iter().find(|d| d.name == *name).map_or("", |d| d.unit);
            println!("{workload:>6}  {name:<34} {value:>16.6} {unit:<12} (per-layer metric)");
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
