//! The exhaustive cost-model differential suite.
//!
//! Two independent implementations answer every cost question:
//!
//! * the **oracle** — a whole-space Dijkstra over all 40,320 3-wire
//!   reversible functions, no symmetry reduction, no tables, no
//!   meet-in-the-middle: just weighted relaxation until the group is
//!   exhausted; and
//! * the **engine** — cost-bucketed tables
//!   ([`SearchTables::generate_weighted`]) plus the cost-bounded
//!   meet-in-the-middle scan, with the ×48 reduction, the
//!   residual-bucket invariant gate and witness-replay peeling.
//!
//! The suite proves they agree on **every** function (quantum cost), and
//! that gate-count mode is bit-identical to the pre-cost-model engine
//! (`synthesize_within`), so threading the cost axis through the stack
//! changed nothing for the paper's primary metric.
//!
//! Debug builds run a deterministic stride of the 40,320 (tier-1 tests
//! stay fast); release builds — the CI `cost-models` job — run the full
//! space.

use std::collections::{BTreeMap, HashMap};

use revsynth_bfs::{reference, SearchTables};
use revsynth_circuit::{CostKind, CostModel, GateLib};
use revsynth_core::{SearchOptions, Synthesizer};
use revsynth_perm::Perm;

/// Every function's optimal cost by whole-space Dijkstra (bucket queue),
/// run until the group is exhausted — the trusted reference.
fn oracle_costs(lib: &GateLib, model: &CostModel) -> HashMap<Perm, u64> {
    let mut dist: HashMap<Perm, u64> = HashMap::new();
    dist.insert(Perm::identity(), 0);
    let mut buckets: BTreeMap<u64, Vec<Perm>> = BTreeMap::new();
    buckets.insert(0, vec![Perm::identity()]);
    let mut settled: std::collections::HashSet<Perm> = Default::default();
    while let Some((&c, _)) = buckets.iter().next() {
        for f in buckets.remove(&c).expect("key just observed") {
            if !settled.insert(f) {
                continue;
            }
            for (_, gate, gate_perm) in lib.iter() {
                let nc = c + model.gate_cost(gate);
                let h = f.then(gate_perm);
                if dist.get(&h).is_none_or(|&old| nc < old) {
                    dist.insert(h, nc);
                    buckets.entry(nc).or_default().push(h);
                }
            }
        }
    }
    dist
}

/// Every function's optimal gate count and the cheapest cost among its
/// gate-count-optimal circuits: breadth-first by gate count, each level
/// settled before the next, keeping per function the minimum cost over
/// its optimal predecessors.
fn gate_optimal_costs(lib: &GateLib, model: &CostModel) -> HashMap<Perm, (usize, u64)> {
    let mut best: HashMap<Perm, (usize, u64)> = HashMap::new();
    best.insert(Perm::identity(), (0, 0));
    let mut frontier = vec![Perm::identity()];
    let mut size = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &f in &frontier {
            let cost = best[&f].1;
            for (_, gate, gate_perm) in lib.iter() {
                let h = f.then(gate_perm);
                let nc = cost + model.gate_cost(gate);
                match best.get_mut(&h) {
                    None => {
                        best.insert(h, (size + 1, nc));
                        next.push(h);
                    }
                    Some(entry) if entry.0 == size + 1 => entry.1 = entry.1.min(nc),
                    Some(_) => {}
                }
            }
        }
        frontier = next;
        size += 1;
    }
    best
}

/// Full space in release (the CI `cost-models` job), deterministic
/// stride in debug so `cargo test` stays minutes-free.
fn stride() -> usize {
    if cfg!(debug_assertions) {
        63
    } else {
        1
    }
}

#[test]
fn quantum_cost_engine_matches_the_oracle_on_n3() {
    let model = CostModel::quantum();
    let oracle = oracle_costs(&GateLib::nct(3), &model);
    assert_eq!(oracle.len(), 40_320, "the whole group is reachable");
    let max = *oracle.values().max().unwrap();
    // Budget so the reach provably covers the costliest function
    // (reach = 2B − 4 here: the costliest 3-wire gate is TOF at 5).
    let budget = (max + 4).div_ceil(2);
    let tables = SearchTables::generate_weighted(GateLib::nct(3), model, budget);
    assert!(tables.cost_reach() >= max, "budget must cover the space");
    let synth = Synthesizer::new(tables);
    let opts = SearchOptions::new()
        .threads(1)
        .cost_model(CostKind::Quantum);
    let ungated = SearchOptions::new().threads(1).filter(false);

    let mut via_mitm = 0u64;
    for (i, (&f, &cost)) in oracle.iter().enumerate() {
        if i % stride() != 0 {
            continue;
        }
        let syn = synth
            .synthesize_with(f, &opts)
            .unwrap_or_else(|e| panic!("f = {f}: {e} (oracle cost {cost})"));
        assert_eq!(syn.cost, cost, "f = {f}");
        assert_eq!(syn.circuit.perm(3), f, "f = {f}");
        assert_eq!(syn.circuit.cost(&model), cost, "f = {f}");
        if syn.lists_scanned > 0 {
            via_mitm += 1;
        }
        // The residual-bucket gate may only skip candidates whose probe
        // must miss: gated and ungated scans are bit-identical.
        if i % (stride() * 17) == 0 {
            let bare = synth.synthesize_with(f, &ungated).unwrap();
            assert_eq!(bare.circuit, syn.circuit, "gate changed the circuit of {f}");
            assert_eq!(bare.cost, syn.cost, "gate changed the cost of {f}");
        }
    }
    assert!(
        via_mitm > 0,
        "the sample must exercise the cost-bounded meet-in-the-middle scan"
    );
}

#[test]
fn gate_count_mode_is_bit_identical_to_the_pre_cost_engine() {
    // The cost axis must not perturb the paper's primary metric: for
    // every 3-wire function, dispatching through the cost-model options
    // (CostKind::Gates) returns byte-for-byte the circuit the plain
    // engine returns, at the oracle's optimal size.
    let lib = GateLib::nct(3);
    let sizes = reference::full_space_sizes(&lib);
    let max = *sizes.values().max().unwrap();
    let synth = Synthesizer::from_scratch(3, max.div_ceil(2));
    let opts = SearchOptions::new().threads(1).cost_model(CostKind::Gates);
    for (i, (&f, &size)) in sizes.iter().enumerate() {
        if i % stride() != 0 {
            continue;
        }
        let plain = synth.synthesize_within(f, synth.max_size()).unwrap();
        let dispatched = synth.synthesize_with(f, &opts).unwrap();
        assert_eq!(dispatched.circuit, plain.circuit, "f = {f}");
        assert_eq!(dispatched.lists_scanned, plain.lists_scanned, "f = {f}");
        assert_eq!(dispatched.cost, plain.circuit.len() as u64, "f = {f}");
        assert_eq!(plain.circuit.len(), size, "f = {f} (oracle size)");
    }
}

#[test]
fn quantum_cost_never_exceeds_five_times_gate_count_and_is_tight() {
    // Cross-model sanity: quantum ≤ 5 · gates (every gate costs ≤ 5 on
    // 3 wires) on a strided sample, and over the whole space some
    // function's quantum optimum is strictly cheaper than every one of
    // its gate-count-optimal circuits (the weighted search pays off).
    let model = CostModel::quantum();
    let lib = GateLib::nct(3);
    let oracle = oracle_costs(&lib, &model);
    let sizes = reference::full_space_sizes(&lib);
    let gate_optimal = gate_optimal_costs(&lib, &model);
    let mut strictly_cheaper = 0u64;
    for (i, (&f, &qcost)) in oracle.iter().enumerate() {
        let (size, cheapest_gate_optimal) = gate_optimal[&f];
        assert_eq!(size, sizes[&f], "f = {f}");
        assert!(qcost <= cheapest_gate_optimal, "f = {f}");
        if qcost < cheapest_gate_optimal {
            strictly_cheaper += 1;
        }
        if i % stride() != 0 {
            continue;
        }
        let size = size as u64;
        assert!(qcost <= 5 * size, "f = {f}: {qcost} > 5·{size}");
        assert!(qcost >= size, "a gate costs at least 1");
    }
    assert!(
        strictly_cheaper > 0,
        "some function must be cheaper than all its gate-optimal circuits"
    );
}

#[test]
fn cost_limit_and_reach_errors_are_clean() {
    let model = CostModel::quantum();
    let tables = SearchTables::generate_weighted(GateLib::nct(3), model, 6);
    let reach = tables.cost_reach() as usize;
    let synth = Synthesizer::new(tables);
    // A function of quantum cost 10 (two Toffolis) is beyond budget-6
    // tables' reach (2·6 − 5 + 1 = 8).
    let two_tofs = "TOF(a,b,c) NOT(a) TOF(a,c,b)"
        .parse::<revsynth_circuit::Circuit>()
        .unwrap()
        .perm(3);
    let err = synth.synthesize(two_tofs).unwrap_err();
    assert!(
        matches!(err, revsynth_core::SynthesisError::SizeExceedsLimit { limit, .. } if limit == reach),
        "{err:?}"
    );
    // An explicit limit below a function's cost also errors cleanly.
    let tof = "TOF(a,b,c)"
        .parse::<revsynth_circuit::Circuit>()
        .unwrap()
        .perm(3);
    let err = synth
        .synthesize_with(tof, &SearchOptions::new().limit(4))
        .unwrap_err();
    assert!(matches!(
        err,
        revsynth_core::SynthesisError::SizeExceedsLimit { limit: 4, .. }
    ));
    // And within the limit it succeeds with the exact cost.
    let syn = synth
        .synthesize_with(tof, &SearchOptions::new().limit(5))
        .unwrap();
    assert_eq!(syn.cost, 5);
}
