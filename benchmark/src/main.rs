//! `hcbench`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hcbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! hcbench --workload <name> --aa N      # N runs, spread beside the bound
//! hcbench --smoke                       # every workload, tiny, every metric
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod driver;
mod fixture;
mod inputs;
mod probes;
mod replay;
mod run;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use fixture::Workload;
use run::{RunArgs, RunResult};

const USAGE: &str =
    "usage: hcbench --workload <chat_mem|chat_file_save|longctx_ssd|arrivals_quota_ssd> \
[--seed N] [--seconds S] [--trace 0|1] [--aa N] | --smoke | --print-benchmark-json";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    aa: Option<usize>,
    smoke: bool,
    print_json: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        aa: None,
        smoke: false,
        print_json: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--aa" => {
                let n: usize = value("a run count")?
                    .parse()
                    .map_err(|e| format!("--aa: {e}"))?;
                if !(2..=100).contains(&n) {
                    return Err("--aa needs 2 to 100 runs".into());
                }
                cli.aa = Some(n);
            }
            "--smoke" => cli.smoke = true,
            "--print-benchmark-json" => cli.print_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn print_table(workload: Workload, seed: u64, result: &RunResult) {
    println!(
        "workload {}  seed {seed}  inputs fnv {:016x}",
        workload.name(),
        result.input_hash
    );
    for m in &result.metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The result line the driver reads.
fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--aa N`: N untraced runs on seeds `seed, seed+1, …` (the way the
/// acceptance check varies them); prints every end-to-end metric's quartile
/// spread beside its bound.
fn aa(workload: Workload, cli: &Cli, n: usize) -> ExitCode {
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
    let mut ok = true;
    for i in 0..n {
        let seed = cli.seed + i as u64;
        let result = run::run(&RunArgs {
            workload,
            seed,
            seconds: cli.seconds,
            traced: false,
            tiny: false,
        });
        println!(
            "run {i}: seed {seed} inputs fnv {:016x} attempted {} failed {}",
            result.input_hash, result.attempted, result.failed
        );
        ok &= result.correct;
        for (column, m) in values.iter_mut().zip(&result.metrics) {
            column.push(m.value);
        }
    }
    println!(
        "{:<28} {:>14} {:>9} {:>7}",
        "metric", "median", "spread", "bound"
    );
    for (m, column) in spec::END_TO_END.iter().zip(&values) {
        let spread = stats::quartile_spread(column);
        // Set-up time is judged on its medians, not on its spread.
        let over = spread > m.bound && m.name != "setup_s";
        ok &= !over;
        println!(
            "{:<28} {:>14.4} {:>9.4} {:>7.2}{}",
            m.name,
            stats::median(column),
            spread,
            m.bound,
            if over { "  OVER" } else { "" }
        );
    }
    exit_code(ok)
}

/// `--smoke`: every workload at tiny sizes, untraced and traced; every
/// metric of the contract must come out, and every end-to-end one non-zero.
fn smoke() -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            let result = run::run(&RunArgs {
                workload,
                seed: spec::DEFAULT_SEED,
                seconds: 0.4,
                traced,
                tiny: true,
            });
            print_table(workload, spec::DEFAULT_SEED, &result);
            ok &= result.correct && result.attempted >= 1;
            let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = if traced {
                spec::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                ok &= result.metrics.iter().all(|m| m.value > 0.0);
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            ok &= names == want;
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    exit_code(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("hcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.print_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cli.smoke {
        return smoke();
    }
    let Some(workload) = cli.workload else {
        eprintln!("hcbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if let Some(n) = cli.aa {
        return aa(workload, &cli, n);
    }
    let result = run::run(&RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        tiny: false,
    });
    print_table(workload, cli.seed, &result);
    println!("{}", result_json(&result));
    exit_code(result.correct)
}
