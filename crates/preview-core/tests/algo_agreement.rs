//! Cross-algorithm agreement: the exact discovery algorithms are optimizers
//! over the same space, so on any graph they must agree on feasibility and
//! on the optimal score — including the degenerate corners (`k == 0`,
//! `n < k`, empty eligible sets, `k == 1` under a tight bound) where they
//! historically diverged: the brute force assembled previews that violated
//! Def. 1 (zero tables, or one mandatory non-key attribute per table
//! overflowing `n`) while the Apriori join returned nothing. Best-first
//! branch-and-bound additionally claims *bitwise* identity with the brute
//! force (same earliest-strict-argmax tie-break), asserted below.

use preview_core::{
    best_preview_for_subset, AnytimeBudget, AprioriDiscovery, BestFirstDiscovery,
    BruteForceDiscovery, DynamicProgrammingDiscovery, KeyScoring, NonKeyAttr, NonKeyScoring,
    Preview, PreviewDiscovery, PreviewSpace, PreviewTable, ScoredSchema, ScoringConfig,
    SizeConstraint,
};

use entity_graph::{EntityGraph, EntityGraphBuilder, TypeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small random multigraph: `types` entity types, a few entities each,
/// `rel_types` relationship types between random type pairs, `edges` random
/// well-typed edges.
fn random_graph(seed: u64, types: usize, rel_types: usize, edges: usize) -> EntityGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = EntityGraphBuilder::new();
    let type_ids: Vec<_> = (0..types)
        .map(|t| builder.entity_type(&format!("T{t}")))
        .collect();
    let entities: Vec<Vec<_>> = type_ids
        .iter()
        .map(|&ty| {
            let count = rng.gen_range(1..5);
            (0..count)
                .map(|e| builder.entity(&format!("e{ty:?}-{e}"), &[ty]))
                .collect()
        })
        .collect();
    let rels: Vec<(_, usize, usize)> = (0..rel_types)
        .map(|r| {
            let src = rng.gen_range(0..types);
            let dst = rng.gen_range(0..types);
            (
                builder.relationship_type(&format!("r{r}"), type_ids[src], type_ids[dst]),
                src,
                dst,
            )
        })
        .collect();
    for _ in 0..edges {
        let &(rel, src, dst) = &rels[rng.gen_range(0..rels.len())];
        let s = entities[src][rng.gen_range(0..entities[src].len())];
        let d = entities[dst][rng.gen_range(0..entities[dst].len())];
        builder.edge(s, rel, d).expect("well-typed edge");
    }
    builder.build()
}

/// Asserts two exact algorithms agree on feasibility and optimal score.
fn assert_agree(
    scored: &ScoredSchema,
    space: &PreviewSpace,
    a: &dyn PreviewDiscovery,
    b: &dyn PreviewDiscovery,
    context: &str,
) {
    let pa = a.discover(scored, space).unwrap();
    let pb = b.discover(scored, space).unwrap();
    match (pa, pb) {
        (Some(pa), Some(pb)) => {
            let sa = scored.preview_score(&pa);
            let sb = scored.preview_score(&pb);
            assert!(
                (sa - sb).abs() < 1e-9 * (1.0 + sb.abs()),
                "{context}: {} found {sa}, {} found {sb}",
                a.name(),
                b.name()
            );
            assert!(space.contains(&pa, scored.distances()), "{context}");
            assert!(space.contains(&pb, scored.distances()), "{context}");
        }
        (None, None) => {}
        (pa, pb) => panic!(
            "{context}: {} feasible={}, {} feasible={}",
            a.name(),
            pa.is_some(),
            b.name(),
            pb.is_some()
        ),
    }
}

/// Asserts best-first output is *bitwise* identical to the brute force:
/// identical preview structure and identical score bits, not just an
/// epsilon-close score.
fn assert_bitwise_matches_brute_force(scored: &ScoredSchema, space: &PreviewSpace, context: &str) {
    let bf = BruteForceDiscovery::new().discover(scored, space).unwrap();
    let best = BestFirstDiscovery::new().discover(scored, space).unwrap();
    match (bf, best) {
        (None, None) => {}
        (Some(bf), Some(best)) => {
            assert_eq!(bf, best, "{context}: preview diverged");
            assert_eq!(
                scored.preview_score(&bf).to_bits(),
                scored.preview_score(&best).to_bits(),
                "{context}: score bits diverged"
            );
        }
        (bf, best) => panic!(
            "{context}: feasibility diverged (brute-force={}, best-first={})",
            bf.is_some(),
            best.is_some()
        ),
    }
}

#[test]
fn algorithms_agree_on_small_random_graphs() {
    let configs = [
        ScoringConfig::coverage(),
        ScoringConfig::new(KeyScoring::RandomWalk, NonKeyScoring::Entropy),
    ];
    for seed in 0..24u64 {
        let graph = random_graph(seed, 2 + (seed as usize % 5), 1 + (seed as usize % 7), 40);
        for config in &configs {
            let scored = ScoredSchema::build(&graph, config).unwrap();
            for k in 1..=3usize {
                for n in k..=(k + 3) {
                    let concise = PreviewSpace::concise(k, n).unwrap();
                    assert_agree(
                        &scored,
                        &concise,
                        &DynamicProgrammingDiscovery::new(),
                        &BruteForceDiscovery::new(),
                        &format!("seed={seed} k={k} n={n} concise"),
                    );
                    assert_bitwise_matches_brute_force(
                        &scored,
                        &concise,
                        &format!("seed={seed} k={k} n={n} concise"),
                    );
                    for d in 1..=3u32 {
                        for space in [
                            PreviewSpace::tight(k, n, d).unwrap(),
                            PreviewSpace::diverse(k, n, d).unwrap(),
                        ] {
                            assert_agree(
                                &scored,
                                &space,
                                &AprioriDiscovery::new(),
                                &BruteForceDiscovery::new(),
                                &format!("seed={seed} k={k} n={n} d={d} {space:?}"),
                            );
                            assert_bitwise_matches_brute_force(
                                &scored,
                                &space,
                                &format!("seed={seed} k={k} n={n} d={d} {space:?}"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// All algorithms must treat a zero-table constraint as an empty space.
///
/// `SizeConstraint::new` rejects `k == 0`, but the fields are public, so
/// hand-built (or deserialized) constraints still reach the algorithms.
/// Pre-fix, the brute force and the DP returned `Some` zero-table preview —
/// not a member of any space per Def. 1 — while Apriori returned `None`.
#[test]
fn zero_table_constraint_is_an_empty_space_for_every_algorithm() {
    let graph = entity_graph::fixtures::figure1_graph();
    let scored = ScoredSchema::build(&graph, &ScoringConfig::coverage()).unwrap();
    let size = SizeConstraint {
        tables: 0,
        non_keys: 0,
    };
    assert!(BruteForceDiscovery::new()
        .discover(&scored, &PreviewSpace::Concise(size))
        .unwrap()
        .is_none());
    assert!(DynamicProgrammingDiscovery::new()
        .discover(&scored, &PreviewSpace::Concise(size))
        .unwrap()
        .is_none());
    assert!(BestFirstDiscovery::new()
        .discover(&scored, &PreviewSpace::Concise(size))
        .unwrap()
        .is_none());
    for space in [PreviewSpace::Tight(size, 1), PreviewSpace::Diverse(size, 1)] {
        assert!(BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
        assert!(AprioriDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
        assert!(BestFirstDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
    }
}

/// With `n < k` some table must go without a non-key attribute, violating
/// Def. 1: the space is empty. Pre-fix the brute force still assembled a
/// preview carrying `k > n` non-key attributes.
#[test]
fn overfull_table_budget_is_an_empty_space_for_every_algorithm() {
    let graph = entity_graph::fixtures::figure1_graph();
    let scored = ScoredSchema::build(&graph, &ScoringConfig::coverage()).unwrap();
    let size = SizeConstraint {
        tables: 3,
        non_keys: 2,
    };
    assert!(BruteForceDiscovery::new()
        .discover(&scored, &PreviewSpace::Concise(size))
        .unwrap()
        .is_none());
    assert!(DynamicProgrammingDiscovery::new()
        .discover(&scored, &PreviewSpace::Concise(size))
        .unwrap()
        .is_none());
    assert!(BestFirstDiscovery::new()
        .discover(&scored, &PreviewSpace::Concise(size))
        .unwrap()
        .is_none());
    for space in [
        PreviewSpace::Tight(size, 10),
        PreviewSpace::Diverse(size, 1),
    ] {
        assert!(BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
        assert!(AprioriDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
        assert!(BestFirstDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
    }
}

/// A graph with no edges has no eligible key attributes: every algorithm
/// reports the space empty at any `k`, including `k == 1` under a tight
/// constraint (where Apriori skips its pair-join entirely).
#[test]
fn empty_eligible_set_is_an_empty_space_for_every_algorithm() {
    let mut builder = EntityGraphBuilder::new();
    let a = builder.entity_type("A");
    let b = builder.entity_type("B");
    builder.entity("x", &[a]);
    builder.entity("y", &[b]);
    let graph = builder.build();
    let scored = ScoredSchema::build(&graph, &ScoringConfig::coverage()).unwrap();
    assert!(scored.eligible_types().is_empty());
    for k in 1..=2usize {
        let concise = PreviewSpace::concise(k, k + 1).unwrap();
        assert!(BruteForceDiscovery::new()
            .discover(&scored, &concise)
            .unwrap()
            .is_none());
        assert!(DynamicProgrammingDiscovery::new()
            .discover(&scored, &concise)
            .unwrap()
            .is_none());
        assert!(BestFirstDiscovery::new()
            .discover(&scored, &concise)
            .unwrap()
            .is_none());
        let tight = PreviewSpace::tight(k, k + 1, 1).unwrap();
        assert!(BruteForceDiscovery::new()
            .discover(&scored, &tight)
            .unwrap()
            .is_none());
        assert!(AprioriDiscovery::new()
            .discover(&scored, &tight)
            .unwrap()
            .is_none());
        assert!(BestFirstDiscovery::new()
            .discover(&scored, &tight)
            .unwrap()
            .is_none());
    }
}

/// The anytime path is the same search: under an unlimited budget it proves
/// optimality and returns a preview bitwise identical to [`discover`]
/// (and hence to the brute force); under shrinking node budgets the
/// incumbent score never increases past the optimum and the reported upper
/// bound always dominates the exact optimum.
///
/// [`discover`]: PreviewDiscovery::discover
#[test]
fn anytime_agrees_with_exact_discovery_on_random_graphs() {
    for seed in 0..6u64 {
        let graph = random_graph(seed, 3 + (seed as usize % 4), 2 + (seed as usize % 5), 40);
        let scored = ScoredSchema::build(&graph, &ScoringConfig::coverage()).unwrap();
        for space in [
            PreviewSpace::concise(2, 4).unwrap(),
            PreviewSpace::diverse(2, 4, 2).unwrap(),
        ] {
            let exact = BestFirstDiscovery::new().discover(&scored, &space).unwrap();
            let unlimited = BestFirstDiscovery::new()
                .discover_anytime(&scored, &space, AnytimeBudget::UNLIMITED)
                .unwrap();
            assert!(unlimited.exact, "seed={seed}: unlimited budget must prove");
            assert_eq!(unlimited.optimality_gap(), 0.0);
            assert_eq!(exact, unlimited.preview, "seed={seed}: preview diverged");
            let Some(exact) = exact else { continue };
            let exact_score = scored.preview_score(&exact);
            for budget in [0, 1, 2, 4, 8, 64] {
                let outcome = BestFirstDiscovery::new()
                    .discover_anytime(&scored, &space, AnytimeBudget::nodes(budget))
                    .unwrap();
                assert!(
                    outcome.score <= exact_score,
                    "seed={seed} budget={budget}: incumbent beat the optimum"
                );
                assert!(
                    outcome.upper_bound >= exact_score,
                    "seed={seed} budget={budget}: upper bound {} below optimum {exact_score}",
                    outcome.upper_bound
                );
                if outcome.exact {
                    assert_eq!(
                        outcome.score.to_bits(),
                        exact_score.to_bits(),
                        "seed={seed} budget={budget}: proved but not optimal"
                    );
                }
            }
        }
    }
}

/// The preview assembly the engines ran per subset before score-first
/// evaluation: every table takes its top candidate, then the whole pool of
/// remaining candidates is sorted by weighted score (ties by table position,
/// then candidate rank) and the best `n - k` fill the remaining slots.
fn pool_sort_assembly(
    scored: &ScoredSchema,
    subset: &[TypeId],
    n: usize,
) -> Option<(Preview, f64)> {
    let mut per_table: Vec<Vec<NonKeyAttr>> = Vec::new();
    let mut score = 0.0;
    for &ty in subset {
        let first = scored.candidates(ty).first()?;
        per_table.push(vec![NonKeyAttr::new(first.edge, first.direction)]);
        score += scored.key_score(ty) * first.score;
    }
    let mut pool: Vec<(f64, usize, usize)> = Vec::new();
    for (pos, &ty) in subset.iter().enumerate() {
        let key = scored.key_score(ty);
        for (rank, cand) in scored.candidates(ty).iter().enumerate().skip(1) {
            pool.push((key * cand.score, pos, rank));
        }
    }
    pool.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("scores are not NaN")
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    for &(weighted, pos, rank) in pool.iter().take(n - subset.len()) {
        let cand = scored.candidates(subset[pos])[rank];
        per_table[pos].push(NonKeyAttr::new(cand.edge, cand.direction));
        score += weighted;
    }
    let tables = subset
        .iter()
        .zip(per_table)
        .map(|(&ty, non_keys)| PreviewTable::new(ty, non_keys))
        .collect();
    Some((Preview::new(tables), score))
}

/// The reference optimum: every feasible `k`-subset of eligible types in
/// lexicographic order, assembled by [`pool_sort_assembly`], keeping the
/// earliest strict maximum. Also returns how many subsets tie that maximum.
fn reference_optimum(
    scored: &ScoredSchema,
    space: &PreviewSpace,
) -> (Option<(Preview, f64)>, usize) {
    let size = space.size();
    let k = size.tables;
    let eligible = scored.eligible_types();
    if k == 0 || size.non_keys < k || eligible.len() < k {
        return (None, 0);
    }
    let mut best: Option<(Preview, f64)> = None;
    let mut ties = 0;
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        let subset: Vec<TypeId> = idx.iter().map(|&i| eligible[i]).collect();
        let feasible = space.distance().is_none_or(|constraint| {
            subset.iter().enumerate().all(|(i, &a)| {
                subset[i + 1..]
                    .iter()
                    .all(|&b| constraint.pair_ok(scored.distances().distance(a, b)))
            })
        });
        if let Some((preview, score)) = feasible
            .then(|| pool_sort_assembly(scored, &subset, size.non_keys))
            .flatten()
        {
            match &best {
                Some((_, top)) if score == *top => ties += 1,
                Some((_, top)) if score < *top => {}
                _ => {
                    best = Some((preview, score));
                    ties = 1;
                }
            }
        }
        // Lexicographic successor of `idx`.
        let Some(i) = (0..k).rev().find(|&i| idx[i] != i + eligible.len() - k) else {
            break;
        };
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
    (best, ties)
}

/// Score-first evaluation is an optimisation of the assembly above, not a
/// new definition: brute force, Apriori and best-first, sequential and at
/// four threads, must return the reference's preview, and the winner's
/// score must carry the reference's bits. Coverage scoring makes ties
/// common, small schemas give types fewer candidates than the `n - k` extra
/// slots, and the sweep covers every space with `k <= 4`, `n <= k + 4` and
/// `d` in `1..=4`.
#[test]
fn score_first_engines_match_the_pool_sort_reference_bitwise() {
    let mut tied_optima = 0;
    let mut short_lists = 0;
    for seed in 0..16u64 {
        let graph = random_graph(seed, 4 + (seed as usize % 5), 2 + (seed as usize % 9), 30);
        let scored = ScoredSchema::build(&graph, &ScoringConfig::coverage()).unwrap();
        for k in 1..=4usize {
            for n in k..=k + 4 {
                short_lists += scored
                    .eligible_types()
                    .iter()
                    .filter(|&&ty| scored.candidates(ty).len() < n - k)
                    .count();
                let mut spaces = vec![PreviewSpace::concise(k, n).unwrap()];
                for d in 1..=4u32 {
                    spaces.push(PreviewSpace::tight(k, n, d).unwrap());
                    spaces.push(PreviewSpace::diverse(k, n, d).unwrap());
                }
                for space in spaces {
                    let context = format!("seed={seed} {space:?}");
                    let (expected, ties) = reference_optimum(&scored, &space);
                    if ties > 1 {
                        tied_optima += 1;
                    }
                    let mut engines: Vec<Box<dyn PreviewDiscovery>> = vec![
                        Box::new(BruteForceDiscovery::new()),
                        Box::new(BestFirstDiscovery::new()),
                    ];
                    if space.distance().is_some() {
                        engines.push(Box::new(AprioriDiscovery::new()));
                    }
                    for engine in &engines {
                        for threads in [1, 4] {
                            let found = engine
                                .discover_with_threads(&scored, &space, threads)
                                .unwrap();
                            let context = format!("{context} {} threads={threads}", engine.name());
                            match (&expected, found) {
                                (None, None) => {}
                                (Some((preview, score)), Some(found)) => {
                                    assert_eq!(&found, preview, "{context}: preview diverged");
                                    let keys: Vec<TypeId> =
                                        found.tables().iter().map(|t| t.key()).collect();
                                    let (_, found_score) =
                                        best_preview_for_subset(&scored, &keys, &space).unwrap();
                                    assert_eq!(
                                        found_score.to_bits(),
                                        score.to_bits(),
                                        "{context}: score bits diverged"
                                    );
                                }
                                (expected, found) => panic!(
                                    "{context}: feasibility diverged (reference={}, engine={})",
                                    expected.is_some(),
                                    found.is_some()
                                ),
                            }
                        }
                    }
                    let anytime = BestFirstDiscovery::new()
                        .discover_anytime(&scored, &space, AnytimeBudget::UNLIMITED)
                        .unwrap();
                    assert_eq!(
                        anytime.score.to_bits(),
                        expected.as_ref().map_or(0.0, |(_, s)| *s).to_bits(),
                        "{context}: best-first score bits diverged"
                    );
                }
            }
        }
    }
    // The sweep must reach the corners the merge order matters for.
    assert!(tied_optima > 0, "no space had a tied optimum");
    assert!(
        short_lists > 0,
        "no type had fewer candidates than extra slots"
    );
}

/// Schemas with more than 64 and more than 128 eligible types spread the
/// pair rows and best-first's feasible sets over two and three `u64` words.
/// Brute force, Apriori and best-first must still return the reference's
/// preview with its score bits, at `d = 0` (no pair passes tight, every
/// pair passes diverse), at a middle `d`, and just above the schema
/// diameter, where only unreachable pairs pass diverse and they fail tight.
#[test]
fn engines_match_the_reference_on_multi_word_schemas() {
    let mut widest = 0;
    let mut unreachable_optima = 0;
    let configs = [
        ScoringConfig::coverage(),
        ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy),
    ];
    for (seed, types, rel_types) in [(0u64, 80, 70), (0, 150, 140)] {
        let graph = random_graph(seed, types, rel_types, 4 * rel_types);
        for config in &configs {
            let scored = ScoredSchema::build(&graph, config).unwrap();
            let eligible = scored.eligible_types();
            assert!(
                (65..=130).contains(&eligible.len()),
                "seed={seed}: {} eligible types",
                eligible.len()
            );
            widest = widest.max(eligible.len());
            let distances = scored.distances();
            let beyond = distances.diameter().unwrap() + 1;
            for k in 1..=3usize {
                let n = k + 1;
                let mut spaces = vec![PreviewSpace::concise(k, n).unwrap()];
                for d in [0, 2, beyond] {
                    spaces.push(PreviewSpace::tight(k, n, d).unwrap());
                    spaces.push(PreviewSpace::diverse(k, n, d).unwrap());
                }
                for space in spaces {
                    let context = format!("seed={seed} {space:?}");
                    let (expected, _) = reference_optimum(&scored, &space);
                    if let (PreviewSpace::Diverse(_, d), Some((preview, _))) = (space, &expected) {
                        if k >= 2 && d == beyond {
                            let keys: Vec<TypeId> =
                                preview.tables().iter().map(|t| t.key()).collect();
                            assert!(!distances.connected(keys[0], keys[1]), "{context}");
                            unreachable_optima += 1;
                        }
                    }
                    let mut engines: Vec<Box<dyn PreviewDiscovery>> = vec![
                        Box::new(BruteForceDiscovery::new()),
                        Box::new(BestFirstDiscovery::new()),
                    ];
                    if space.distance().is_some() {
                        engines.push(Box::new(AprioriDiscovery::new()));
                    }
                    for engine in &engines {
                        let found = engine.discover(&scored, &space).unwrap();
                        let context = format!("{context} {}", engine.name());
                        match (&expected, found) {
                            (None, None) => {}
                            (Some((preview, score)), Some(found)) => {
                                assert_eq!(&found, preview, "{context}: preview diverged");
                                let keys: Vec<TypeId> =
                                    found.tables().iter().map(|t| t.key()).collect();
                                let (_, found_score) =
                                    best_preview_for_subset(&scored, &keys, &space).unwrap();
                                assert_eq!(
                                    found_score.to_bits(),
                                    score.to_bits(),
                                    "{context}: score bits diverged"
                                );
                            }
                            (expected, found) => panic!(
                                "{context}: feasibility diverged (reference={}, engine={})",
                                expected.is_some(),
                                found.is_some()
                            ),
                        }
                    }
                }
            }
        }
    }
    assert!(widest > 128, "no schema crossed the second word boundary");
    assert!(
        unreachable_optima > 0,
        "no diverse optimum joined unreachable types"
    );
}
