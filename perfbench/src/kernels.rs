//! Replays of single layers, timed from outside through their public
//! functions:
//!
//! * the §3.3 kernels (`perm`, `canon`, `table`) over one query's real
//!   meet-in-the-middle candidate stream at the workload's depth, so the
//!   table probes touch the same memory (L3- or DRAM-resident) the engine
//!   does;
//! * the serve hit path — canonicalize with witness, replay, protocol
//!   encode/decode and the class cache — over the workload's own queries
//!   and answers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use revsynth_bfs::SearchTables;
use revsynth_canon::{replay_for_witness, Symmetries};
use revsynth_circuit::{Circuit, CostKind};
use revsynth_perm::Perm;
use revsynth_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use revsynth_serve::ClassCache;
use revsynth_table::InvariantIndex;

use crate::report::Report;
use crate::stats::percentile;
use crate::trace::Tracer;

/// Most candidates replayed per kernel.
const STREAM_CAP: usize = 1 << 20;
/// Minimum wall time of one timed pass.
const MIN_PASS: Duration = Duration::from_millis(100);
/// Passes per kernel; the median pass is reported.
const PASSES: usize = 3;

/// The paper's instruction counts for the §3.3 kernels, shown beside the
/// measured times.
pub const PAPER_INSTRUCTIONS: [(&str, u32); 4] = [
    ("perm.compose_ns", 94),
    ("perm.inverse_ns", 59),
    ("perm.conjugate_ns", 14),
    ("canon.canonical_ns", 750),
];

/// Median over [`PASSES`] passes of the nanoseconds per call of `op`
/// applied to every item of `items`; each pass repeats the sweep until it
/// has run for [`MIN_PASS`].
fn ns_per_op<T>(items: &[T], mut op: impl FnMut(&T) -> u64) -> f64 {
    assert!(!items.is_empty(), "a kernel needs inputs");
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t = Instant::now();
        let mut ops = 0usize;
        let mut acc = 0u64;
        while t.elapsed() < MIN_PASS {
            for item in items {
                acc ^= op(black_box(item));
            }
            ops += items.len();
        }
        black_box(acc);
        passes.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    passes.sort_by(f64::total_cmp);
    percentile(&passes, 50.0).expect("passes were run")
}

/// The candidate compositions the engine considers for `f` at `depth`:
/// every stored size-`depth` representative against every distinct
/// forward and inverse frame, in scan order, up to [`STREAM_CAP`].
fn candidate_stream(tables: &SearchTables, f: Perm, depth: usize) -> (Vec<Perm>, Vec<Perm>) {
    let sym = tables.sym();
    let mut fwd: Vec<Perm> = sym.frames(f).map(|(p, _)| p).collect();
    let mut inv: Vec<Perm> = sym.frames(f.inverse()).map(|(p, _)| p).collect();
    for frames in [&mut fwd, &mut inv] {
        frames.sort_unstable();
        frames.dedup();
    }
    let mut stream = Vec::new();
    'reps: for &rep in tables.level(depth) {
        for &frame in &fwd {
            stream.push(frame.then(rep));
        }
        for &frame in &inv {
            stream.push(rep.then(frame));
        }
        if stream.len() >= STREAM_CAP {
            break 'reps;
        }
    }
    (stream, fwd)
}

/// Times the §3.3 kernels over `f`'s candidate stream at `depth`.
pub fn replay_kernels(
    tables: &SearchTables,
    f: Perm,
    depth: usize,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let span = tracer.open("replay.kernels", 0, 0);
    let sym: &Symmetries = tables.sym();
    let table = tables.table();
    let index = tables.invariants();
    let k = tables.k();
    let (stream, frames) = candidate_stream(tables, f, depth);
    let reps = &tables.level(depth)[..tables
        .level(depth)
        .len()
        .min(STREAM_CAP / frames.len().max(1))];

    let compose = ns_per_op(reps, |&rep| {
        frames.iter().fold(0, |a, &fr| a ^ fr.then(rep).packed())
    });
    report.set("perm.compose_ns", compose / frames.len() as f64);
    report.set(
        "perm.inverse_ns",
        ns_per_op(&stream, |p| p.inverse().packed()),
    );
    report.set(
        "perm.conjugate_ns",
        ns_per_op(&stream, |p| p.conjugate_swap_indexed(0).packed()),
    );
    report.set(
        "canon.canonical_ns",
        ns_per_op(&stream, |&p| sym.canonical(p).packed()),
    );
    report.set(
        "table.invariant_key_ns",
        ns_per_op(&stream, |&p| InvariantIndex::key_of(p)),
    );
    report.set(
        "table.admits_ns",
        ns_per_op(&stream, |&p| u64::from(index.admits(p, k))),
    );

    // Probes take canonical keys, as in the engine. Hits are rare in a
    // real stream, so the hit set is topped up with stored representatives
    // of the deepest level, which are spread over the whole table.
    let canon: Vec<Perm> = stream.iter().map(|&p| sym.canonical(p)).collect();
    let (mut hits, misses): (Vec<Perm>, Vec<Perm>) =
        canon.into_iter().partition(|&c| table.contains(c));
    let top_up = (1usize << 16).saturating_sub(hits.len());
    hits.extend(tables.level(k).iter().step_by(7).take(top_up));
    report.set(
        "table.probe_hit_ns",
        ns_per_op(&hits, |&c| u64::from(table.contains(c))),
    );
    report.set(
        "table.probe_miss_ns",
        ns_per_op(&misses, |&c| u64::from(table.contains(c))),
    );
    tracer.close(span);
}

/// Times the serve hit path over `(query, answer)` pairs: canonicalize
/// with witness, replay the representative's circuit, protocol encode and
/// decode of the request/response round trip, and the class-cache lookup.
pub fn replay_hit_path(
    sym: &Symmetries,
    answers: &[(Perm, Circuit)],
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let span = tracer.open("replay.hit_path", 0, 0);
    let queries: Vec<Perm> = answers.iter().map(|(f, _)| *f).collect();
    report.set(
        "canon.canonicalize_ns",
        ns_per_op(&queries, |&f| sym.canonicalize(f).rep.packed()),
    );

    // What a class-keyed cache stores: the circuit in the rep's frame.
    let stored: Vec<_> = answers
        .iter()
        .map(|(f, c)| {
            let w = sym.canonicalize(*f);
            let rc = if w.inverted { c.inverse() } else { c.clone() };
            (w, rc.conjugate_by_wires(w.sigma))
        })
        .collect();
    report.set(
        "canon.replay_ns",
        ns_per_op(&stored, |(w, rc)| replay_for_witness(rc, w).len() as u64),
    );

    let encoded: Vec<(Vec<u8>, Vec<u8>)> = answers
        .iter()
        .map(|(f, c)| {
            (
                encode_request(&Request::Query(*f, CostKind::Gates, None)),
                encode_response(&Response::Circuit(c.clone())),
            )
        })
        .collect();
    report.set(
        "serve.protocol.encode_ns",
        ns_per_op(answers, |(f, c)| {
            let req = encode_request(&Request::Query(*f, CostKind::Gates, None));
            let resp = encode_response(&Response::Circuit(c.clone()));
            (req.len() + resp.len()) as u64
        }),
    );
    report.set(
        "serve.protocol.decode_ns",
        ns_per_op(&encoded, |(req, resp)| {
            let a = matches!(decode_request(req), Ok(Request::Query(..)));
            let b = matches!(decode_response(resp), Ok(Response::Circuit(_)));
            u64::from(a) + u64::from(b)
        }),
    );

    let cache = ClassCache::new(stored.len().next_power_of_two().max(1024));
    for (w, rc) in &stored {
        cache.insert(CostKind::Gates, w.rep, rc.clone());
    }
    report.set(
        "serve.cache.get_ns",
        ns_per_op(&stored, |(w, _)| {
            cache
                .get(CostKind::Gates, w.rep)
                .map_or(0, |c| c.len() as u64)
        }),
    );
    tracer.close(span);
}
