//! `repro` — regenerate the paper's figures as text tables.
//!
//! ```text
//! repro <fig4|fig5|fig11|fig12|fig13|fig14|fig15|fig16|fig17|micro|ablations|all> [--full] [--tsv]
//! repro trace [--out FILE]    # capture a traced micro run (Chrome trace JSON)
//! repro metrics [--out FILE]  # sampled micro run -> Perfetto counter tracks
//! ```
//!
//! `ablations` prints DESIGN §4's ablations, one component cost per row.
//! `--full` enlarges sweeps toward the paper's axes; `--tsv` emits
//! tab-separated values (for EXPERIMENTS.md appendices) instead of
//! aligned tables.

use hat_bench::{Scale, Table};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let tsv = args.iter().any(|a| a == "--tsv");
    fn take_flag_value(name: &str, args: &mut Vec<String>) -> Option<String> {
        match args.iter().position(|a| a == name) {
            Some(i) if i + 1 < args.len() => {
                let file = args.remove(i + 1);
                args.remove(i);
                Some(file)
            }
            Some(_) => {
                eprintln!("repro: {name} needs an argument");
                std::process::exit(2);
            }
            None => None,
        }
    }
    let out_flag = take_flag_value("--out", &mut args);
    let scale = if full { Scale::Full } else { Scale::Quick };
    let which: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    let which = if which.is_empty() { vec!["all"] } else { which };

    let print = |t: Table| {
        if tsv {
            println!("# {}", t.title());
            print!("{}", t.to_tsv());
        } else {
            println!("{t}");
        }
        // stdout to a file is block-buffered; make each finished table
        // visible immediately.
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    };

    // Progress heartbeat: long sweeps on slow hosts would otherwise look
    // hung (stderr is line-buffered, so this shows up live).
    std::thread::spawn(|| {
        let start = std::time::Instant::now();
        loop {
            std::thread::sleep(std::time::Duration::from_secs(30));
            eprintln!("repro: still running ({}s elapsed)", start.elapsed().as_secs());
        }
    });

    for target in which {
        match target {
            "fig4" => print(hat_bench::fig04_protocol_latency(scale)),
            "fig5" => print(hat_bench::fig05_protocol_throughput(scale)),
            "fig11" => print(hat_bench::fig11_atb_latency(scale)),
            "fig12" => print(hat_bench::fig12_atb_throughput(scale)),
            "fig13" => print(hat_bench::fig13_mix(scale)),
            "fig14" => print(hat_bench::fig14_mix(scale)),
            "fig15" => print(hat_bench::fig15_ycsb(scale)),
            "fig16" => print(hat_bench::fig16_ycsb(scale)),
            "fig17" => print(hat_bench::fig17_tpch(scale)),
            "micro" => print(hat_bench::micro_section3()),
            "ablations" => print(hat_bench::ablations()),
            "trace" => {
                let trace_out = out_flag.clone().unwrap_or_else(|| "TRACE_micro.json".to_string());
                let trace = hat_bench::capture_micro_trace();
                std::fs::write(&trace_out, &trace.json).unwrap_or_else(|e| {
                    eprintln!("repro: cannot write {trace_out}: {e}");
                    std::process::exit(1);
                });
                eprintln!(
                    "repro: wrote {} ({} events, {} histogram rows) — open in ui.perfetto.dev",
                    trace_out,
                    trace.events,
                    trace.latency.len()
                );
            }
            "metrics" => {
                let metrics_out =
                    out_flag.clone().unwrap_or_else(|| "METRICS_micro.json".to_string());
                let m = hat_bench::capture_micro_metrics();
                std::fs::write(&metrics_out, &m.json).unwrap_or_else(|e| {
                    eprintln!("repro: cannot write {metrics_out}: {e}");
                    std::process::exit(1);
                });
                eprintln!(
                    "repro: wrote {metrics_out} ({} ticks, {} ops sampled) — open in ui.perfetto.dev",
                    m.ticks, m.ops
                );
            }
            "all" => {
                print(hat_bench::fig04_protocol_latency(scale));
                print(hat_bench::fig05_protocol_throughput(scale));
                print(hat_bench::fig11_atb_latency(scale));
                print(hat_bench::fig12_atb_throughput(scale));
                print(hat_bench::fig13_mix(scale));
                print(hat_bench::fig14_mix(scale));
                print(hat_bench::fig15_ycsb(scale));
                print(hat_bench::fig16_ycsb(scale));
                print(hat_bench::fig17_tpch(scale));
                print(hat_bench::micro_section3());
                print(hat_bench::ablations());
            }
            other => {
                eprintln!("repro: unknown target '{other}'");
                eprintln!(
                    "usage: repro <fig4|fig5|fig11|fig12|fig13|fig14|fig15|fig16|fig17|micro|ablations|all> [--full] [--tsv]\n       repro trace [--out FILE]\n       repro metrics [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
}
