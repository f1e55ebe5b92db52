//! `hatbench` — the repo's benchmark. Five closed-loop workloads measured
//! from outside the stack: through `pub` functions and `pub` counters only.
//!
//! ```text
//! hatbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! hatbench run [--seed N] [--seconds S] [--quick]                     every workload → results.json
//! hatbench compare A.json B.json [--spec BENCHMARK.json]              judge B against A
//! ```

mod alloc;
mod gen;
mod measure;
mod probes;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::RunConfig;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  hatbench --workload <rpc_small|rpc_large|rpc_pipelined|kv_read|kv_mixed> \\
           --seed <n> --seconds <s> --trace <0|1> [--quick] [--detail FILE] [--out-dir DIR]
  hatbench run [--seed N] [--seconds S] [--quick] [--out-dir DIR]
  hatbench compare A.json B.json [--spec BENCHMARK.json]";

/// Default seed and run length (1 s windows) of `hatbench run`.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 20;
const QUICK_SECONDS: u64 = 4;

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    detail: Option<PathBuf>,
    out_dir: PathBuf,
    spec: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        detail: None,
        out_dir: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |flag: &str, v: String| {
            v.parse::<u64>().map_err(|_| format!("{flag}: '{v}' is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--trace" => args.trace = number("--trace", value("--trace")?)? != 0,
            "--quick" => args.quick = true,
            "--detail" => args.detail = Some(PathBuf::from(value("--detail")?)),
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--spec" => args.spec = PathBuf::from(value("--spec")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn one_run(args: &Args, workload: &str) -> Result<(), String> {
    let workload = Workload::from_name(workload).ok_or(format!("unknown workload '{workload}'"))?;
    let seconds = args.seconds.ok_or("--seconds is required")?.max(1);
    let cfg = RunConfig { workload, seed: args.seed, seconds };
    let result = if args.trace {
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
        measure::run_layers(&cfg, args.quick, &args.out_dir)
    } else {
        measure::run_end_to_end(&cfg)
    };
    if let Some(trace) = &result.trace {
        let path = args.out_dir.join(format!("{}.trace.json", workload.name()));
        report::write_json(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.detail {
        report::write_json(path, &report::detail(&result))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::contract_line(&result));
    Ok(())
}

fn main() -> ExitCode {
    let outcome =
        parse_args().and_then(|args| {
            match args.positional.iter().map(String::as_str).collect::<Vec<_>>()[..] {
                [] => match &args.workload {
                    Some(workload) => one_run(&args, workload),
                    None => Err(USAGE.to_string()),
                },
                ["run"] => {
                    let seconds = args.seconds.unwrap_or(if args.quick {
                        QUICK_SECONDS
                    } else {
                        DEFAULT_SECONDS
                    });
                    let cfg = report::RunAll {
                        seed: args.seed,
                        seconds,
                        quick: args.quick,
                        out_dir: args.out_dir.clone(),
                    };
                    report::run_all(&cfg)
                }
                ["compare", a, b] => report::compare(a.as_ref(), b.as_ref(), &args.spec).and_then(
                    |(regressed, _)| match regressed {
                        0 => Ok(()),
                        n => Err(format!("{n} regressed rows")),
                    },
                ),
                _ => Err(USAGE.to_string()),
            }
        });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("hatbench: {message}");
            ExitCode::FAILURE
        }
    }
}
