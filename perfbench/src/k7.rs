//! `random_k7`: the paper's setting. Optimal synthesis of uniformly random
//! 4-bit permutations, one at a time on one search thread, from k = 7
//! tables that are generated, stored as v5, and mapped back in set-up.
//!
//! The query set is fixed: the first [`QUERIES`] permutations of the
//! seed-[`PAPER_SEED`] uniform stream (`revsynth random --seed 2010`).
//! `--seed` only shuffles their order, afresh in every round. A fresh
//! sample per seed is far too uneven to time: one 13-gate query costs
//! 2–10 s at k = 7 (and a 14-gate one about 100 s), so ten fresh queries
//! swing the total by ±15% or more.
//!
//! The set is run in rounds, as many as fit in `--seconds`. One execution
//! of a query varies by ±10–15% with the load on the host's shared L3 and
//! DRAM, which drifts over seconds and slows every query of a round
//! alike. So a query's latency is its mean over the rounds, which spreads
//! its samples over the whole phase, and the latency percentiles are taken
//! over those per-query means.

use std::time::Instant;

use revsynth_analysis::{random_perm, Rng, SplitMix64};
use revsynth_circuit::Circuit;
use revsynth_core::{SearchOptions, SearchStats, Synthesizer};
use revsynth_perm::Perm;

use crate::json::Json;
use crate::kernels;
use crate::procfs;
use crate::report::{size_digest, Report};
use crate::setup::{self, Scratch};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::Ctx;

/// Seed of the fixed query set (the year of the paper).
pub const PAPER_SEED: u64 = 2010;
/// Permutations in the fixed query set. Odd, so that the median is one
/// query's latency rather than the boundary between two.
pub const QUERIES: usize = 5;

/// The fixed query set, in stream order.
pub fn query_set() -> Vec<Perm> {
    let mut rng = SplitMix64::new(PAPER_SEED);
    (0..QUERIES).map(|_| random_perm(4, &mut rng)).collect()
}

/// One timed pass over the set.
struct Pass {
    /// Set indices in the order they ran.
    order: Vec<usize>,
    wall_s: f64,
    cpu_s: f64,
    /// Per set index: the latency.
    by_query_ms: Vec<f64>,
    /// Per set index: the answer.
    answers: Vec<Option<(Circuit, SearchStats, usize)>>,
    search_s: f64,
    failed: u64,
}

fn timed_pass(synth: &Synthesizer, set: &[Perm], order: &[usize], tracer: &mut Tracer) -> Pass {
    let opts = SearchOptions::new().threads(1);
    let phase = tracer.open("phase.timed", 0, 0);
    let mut pass = Pass {
        order: order.to_vec(),
        wall_s: 0.0,
        cpu_s: 0.0,
        by_query_ms: vec![0.0; set.len()],
        answers: vec![None; set.len()],
        search_s: 0.0,
        failed: 0,
    };
    let cpu0 = procfs::process_cpu_s();
    let t0 = Instant::now();
    for &i in order {
        let f = set[i];
        let span = tracer.open("core.synthesize_with", phase, i as u64 + 1);
        let t = Instant::now();
        let result = synth.synthesize_with(f, &opts);
        let dt = t.elapsed().as_secs_f64();
        tracer.close(span);
        pass.by_query_ms[i] = dt * 1e3;
        pass.search_s += dt;
        match result {
            Ok(s) if s.circuit.perm(4) == f => {
                pass.answers[i] = Some((s.circuit, s.stats, s.lists_scanned));
            }
            _ => pass.failed += 1,
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = procfs::process_cpu_s() - cpu0;
    tracer.close(phase);
    pass
}

/// Per set index: the mean of its latencies over the passes.
fn per_query_means(passes: &[Pass]) -> Vec<f64> {
    let queries = passes.first().map_or(0, |p| p.by_query_ms.len());
    (0..queries)
        .map(|i| passes.iter().map(|p| p.by_query_ms[i]).sum::<f64>() / passes.len() as f64)
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let set = query_set();
    let mut rng = SplitMix64::new(ctx.seed);
    let mut shuffled = || {
        let mut order: Vec<usize> = (0..set.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
    };

    let setup_span = tracer.open("setup", 0, 0);
    let t = Instant::now();
    let scratch = Scratch::new(&ctx.out_dir, "k7")?;
    let built = setup::build(7, ctx.threads, &scratch, tracer, setup_span)?;
    report.set("bfs.generate_s", built.generate_s);
    report.set("bfs.save_s", built.save_s);
    report.set("bfs.load_ms", built.load_ms);
    report.set("bfs.store_mb", built.store_mb);
    report.set("bfs.classes", built.classes as f64);
    let synth = Synthesizer::new(built.tables);
    // Warm the caches with the set's last (13-gate) query, so that the
    // first timed query does not pay for a cold 300 MiB L3.
    let warm = tracer.open("setup.warm_up", setup_span, 0);
    let warmed = synth.synthesize_with(set[QUERIES - 1], &SearchOptions::new().threads(1));
    tracer.close(warm);
    if !warmed.is_ok_and(|s| s.circuit.perm(4) == set[QUERIES - 1]) {
        return Err("the warm-up query failed".to_string());
    }
    let setup_s = t.elapsed().as_secs_f64();
    tracer.close(setup_span);
    report.set("setup_s", setup_s);

    // Untraced pass(es): whole rounds over the set while another round
    // ends within half a round of --seconds (at least one), so that the
    // round count does not flip with small changes in speed.
    let host0 = procfs::host_cpu();
    let mut untraced = Tracer::new(false, Instant::now());
    let mut passes = Vec::new();
    let t = Instant::now();
    while passes
        .last()
        .is_none_or(|p: &Pass| t.elapsed().as_secs_f64() + p.wall_s / 2.0 <= ctx.seconds)
    {
        passes.push(timed_pass(&synth, &set, &shuffled(), &mut untraced));
    }
    let steal = host0.steal_share_until(&procfs::host_cpu());
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let cpu: f64 = passes.iter().map(|p| p.cpu_s).sum();
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.by_query_ms.iter().copied())
        .collect();
    let queries = lat.len() as f64;
    let lat_summary = Summary::of(&lat).expect("at least one pass ran");
    let per_query = Summary::of(&per_query_means(&passes)).expect("the set is not empty");
    report.attempted = lat.len() as u64;
    report.failed = passes.iter().map(|p| p.failed).sum();
    report.diag("queries_per_s", Json::Num(queries / wall));
    report.set("latency_p50_ms", per_query.p50);
    report.set("latency_p90_ms", per_query.p90);
    report.set("cpu_ms_per_query", cpu * 1e3 / queries);
    report.set(
        "ok_share",
        (report.attempted - report.failed) as f64 / queries,
    );
    report.set("host.steal_share", steal);
    crate::latency_diagnostics(report, &lat_summary);
    report.diag("phase_s", Json::Num(wall));
    report.diag("rounds", Json::Int(passes.len() as i64));
    report.diag(
        "order_by_round",
        Json::Arr(
            passes
                .iter()
                .map(|p| Json::Arr(p.order.iter().map(|&i| Json::Int(i as i64)).collect()))
                .collect(),
        ),
    );
    report.diag(
        "latency_by_round_ms",
        Json::Arr(
            passes
                .iter()
                .map(|p| Json::Arr(p.by_query_ms.iter().map(|&ms| Json::Num(ms)).collect()))
                .collect(),
        ),
    );

    let first = &passes[0];
    let sizes: Vec<usize> = first
        .answers
        .iter()
        .map(|a| a.as_ref().map_or(0, |a| a.0.len()))
        .collect();
    report.digest = size_digest(sizes.iter().copied());
    let weighted = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    report.diag("average_gates", Json::Num(weighted));
    report.diag("paper_average_gates", Json::Num(11.94));
    report.diag("core.search_p50_s", Json::Num(per_query.p50 / 1e3));
    let per_pass_stats: Vec<[u64; 4]> = passes
        .iter()
        .map(|p| {
            let mut total = SearchStats::default();
            for (_, s, _) in p.answers.iter().flatten() {
                total.merge(s);
            }
            [
                total.considered,
                total.gated,
                total.canonicalized,
                total.probed,
            ]
        })
        .collect();
    report.check(
        "core counts repeat across rounds",
        per_pass_stats.windows(2).all(|w| w[0] == w[1]),
        format!("{per_pass_stats:?}"),
    );

    if ctx.trace {
        let traced = timed_pass(&synth, &set, &passes[0].order, tracer);
        report.set("trace.overhead_share", traced.wall_s / first.wall_s - 1.0);
        report.failed += traced.failed;
        report.attempted += set.len() as u64;
        let mut total = SearchStats::default();
        let mut lists = 0usize;
        for (_, s, l) in traced.answers.iter().flatten() {
            total.merge(s);
            lists += l;
        }
        crate::core_metrics(report, &total, lists, traced.search_s);
        let answers: Vec<(Perm, Circuit)> = traced
            .answers
            .iter()
            .zip(&set)
            .filter_map(|(a, &f)| a.as_ref().map(|a| (f, a.0.clone())))
            .collect();
        // The deepest query of the set drives the kernels at its depth.
        let (f, depth) = answers
            .iter()
            .map(|(f, c)| (*f, c.len().saturating_sub(7)))
            .max_by_key(|&(_, d)| d)
            .ok_or("no answers to replay")?;
        kernels::replay_kernels(synth.tables(), f, depth.max(1), report, tracer);
        kernels::replay_hit_path(synth.tables().sym(), &answers, report, tracer);
        // This workload bypasses the server.
        crate::serve_bypassed(report);
    }
    drop(synth);
    drop(scratch);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(by_query_ms: Vec<f64>) -> Pass {
        Pass {
            order: (0..by_query_ms.len()).collect(),
            wall_s: by_query_ms.iter().sum::<f64>() / 1e3,
            cpu_s: 0.0,
            answers: vec![None; by_query_ms.len()],
            by_query_ms,
            search_s: 0.0,
            failed: 0,
        }
    }

    #[test]
    fn each_query_is_timed_by_its_mean_over_the_rounds() {
        let passes = [
            pass(vec![300.0, 40.0, 2000.0]),
            pass(vec![400.0, 50.0, 2600.0]),
            pass(vec![350.0, 30.0, 2300.0]),
        ];
        assert_eq!(per_query_means(&passes), vec![350.0, 40.0, 2300.0]);
        assert!(per_query_means(&[]).is_empty());
    }

    #[test]
    fn the_query_set_is_fixed_and_odd() {
        assert_eq!(QUERIES % 2, 1);
        assert_eq!(query_set(), query_set());
        assert_eq!(query_set().len(), QUERIES);
    }
}
