//! The revsynth benchmark binary: runs one workload once and prints the
//! full result (every metric, diagnostics, answer checks and provenance)
//! as one JSON line. `run.py` builds it, runs it and reduces that line to
//! the one-line result the benchmark prints.
//!
//! ```text
//! perfbench <random_k7|serve_warm|serve_cold> --seed N --seconds S --trace 0|1 --out DIR
//! ```

mod json;
mod k7;
mod kernels;
mod procfs;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use revsynth_core::SearchStats;

use json::Json;
use report::Report;
use stats::Summary;
use trace::Tracer;

/// What every workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The benchmark's own output directory (scratch stores, span dumps).
    pub out_dir: PathBuf,
    /// Threads for table generation (`nproc`).
    pub threads: usize,
}

const WORKLOADS: [&str; 3] = ["random_k7", "serve_warm", "serve_cold"];

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let workload = args
        .first()
        .ok_or("usage: perfbench <workload> --seed N --seconds S --trace 0|1 --out DIR")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => ctx.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--out" => ctx.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
        return Err(format!(
            "--seconds {} is out of range (0, 600]",
            ctx.seconds
        ));
    }
    Ok((workload.clone(), ctx))
}

/// Sample count and the highest percentile with ≥ 10 samples beyond it.
pub fn latency_diagnostics(report: &mut Report, lat: &Summary) {
    report.diag("latency_samples", Json::Int(lat.n as i64));
    report.diag(
        "latency_tail",
        lat.tail.map_or(Json::Null, |(p, ms)| {
            Json::obj([("percentile", Json::Num(p)), ("ms", Json::Num(ms))])
        }),
    );
    report.diag("latency_min_ms", Json::Num(lat.min));
    report.diag("latency_max_ms", Json::Num(lat.max));
}

/// The engine's summed pipeline counts over `search_s` of synthesis.
pub fn core_metrics(report: &mut Report, total: &SearchStats, lists: usize, search_s: f64) {
    report.set("core.search_s", search_s);
    report.set("core.considered", total.considered as f64);
    report.set("core.gated", total.gated as f64);
    report.set("core.canonicalized", total.canonicalized as f64);
    report.set("core.probed", total.probed as f64);
    report.set("core.gate_selectivity", total.gate_selectivity());
    report.set(
        "core.ns_per_candidate",
        search_s * 1e9 / total.considered.max(1) as f64,
    );
    report.set("core.lists_scanned", lists as f64);
}

/// Server-side metrics of a workload that bypasses the server: zero.
pub fn serve_bypassed(report: &mut Report) {
    for name in [
        "serve.server_cpu_ms_per_query",
        "serve.client_cpu_ms_per_query",
        "serve.hits",
        "serve.searches",
        "serve.batches",
        "serve.max_batch",
        "serve.coalesced",
        "serve.shed",
        "serve.errors",
        "serve.queue_wait_ms",
        "serve.batch_search_ms",
    ] {
        report.set(name, 0.0);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: create {}: {e}", ctx.out_dir.display());
        std::process::exit(2);
    }
    let epoch = Instant::now();
    let mut tracer = Tracer::new(ctx.trace, epoch);
    let mut report = Report::default();
    let outcome = match workload.as_str() {
        "random_k7" => k7::run(&ctx, &mut tracer, &mut report),
        "serve_warm" => serve::run(&ctx, serve::Mode::Warm, &mut tracer, &mut report),
        _ => serve::run(&ctx, serve::Mode::Cold, &mut tracer, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    }
    report.set("peak_rss_mb", procfs::peak_rss_mb());

    if ctx.trace {
        for (name, ns) in tracer.self_time_by_name() {
            report.diag(&format!("self_s.{name}"), Json::Num(ns as f64 / 1e9));
        }
        let path = ctx
            .out_dir
            .join(format!("spans-{workload}-{}.json", ctx.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_json().render()) {
            eprintln!("perfbench: write {}: {e}", path.display());
            std::process::exit(1);
        }
        report.diag("spans_file", Json::str(path.display().to_string()));
    }
    report.diag(
        "paper_instructions",
        Json::obj(
            kernels::PAPER_INSTRUCTIONS
                .iter()
                .map(|&(k, v)| (k, Json::Int(i64::from(v)))),
        ),
    );
    let provenance = Json::obj([
        ("cpu_model", Json::str(procfs::cpu_model())),
        ("nproc", Json::Int(ctx.threads as i64)),
        ("seed", Json::Int(ctx.seed as i64)),
        ("seconds", Json::Num(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("run_s", Json::Num(epoch.elapsed().as_secs_f64())),
    ]);
    println!("{}", report.to_json(&workload, provenance).render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let (w, ctx) =
            parse_args(&args("serve_cold --seed 7 --seconds 2.5 --trace 1 --out x")).unwrap();
        assert_eq!(
            (w.as_str(), ctx.seed, ctx.seconds, ctx.trace),
            ("serve_cold", 7, 2.5, true)
        );
        assert_eq!(ctx.out_dir, PathBuf::from("x"));
        assert!(parse_args(&args("nope")).is_err());
        assert!(parse_args(&args("random_k7 --seed")).is_err());
        assert!(parse_args(&args("random_k7 --seconds 0")).is_err());
        assert!(parse_args(&args("random_k7 --bogus 1")).is_err());
    }
}
