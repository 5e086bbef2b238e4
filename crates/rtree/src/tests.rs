//! Unit and property tests for the R-tree, validated against a linear-scan
//! oracle.

use crate::{RTree, Rect};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Brute-force oracle mirroring the tree contents.
#[derive(Default)]
struct Oracle {
    points: Vec<(Vec<f64>, u64)>,
}

impl Oracle {
    fn insert(&mut self, coords: &[f64], id: u64) {
        self.points.push((coords.to_vec(), id));
    }

    fn remove(&mut self, coords: &[f64], id: u64) -> bool {
        if let Some(pos) = self.points.iter().position(|(c, i)| *i == id && c == coords) {
            self.points.swap_remove(pos);
            true
        } else {
            false
        }
    }

    fn window(&self, w: &Rect) -> Vec<(Vec<f64>, u64)> {
        self.points.iter().filter(|(c, _)| w.contains_point(c)).cloned().collect()
    }

    fn is_dominated(&self, q: &[f64]) -> bool {
        self.points.iter().any(|(c, _)| {
            c.iter().zip(q).all(|(a, b)| a <= b) && c.iter().zip(q).any(|(a, b)| a < b)
        })
    }

    fn is_ext_dominated(&self, q: &[f64]) -> bool {
        self.points.iter().any(|(c, _)| c.iter().zip(q).all(|(a, b)| a < b))
    }
}

fn sorted(mut v: Vec<(Vec<f64>, u64)>) -> Vec<(Vec<f64>, u64)> {
    v.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.partial_cmp(&b.0).unwrap()));
    v
}

#[test]
fn empty_tree_behaves() {
    let tree = RTree::new(3);
    assert!(tree.is_empty());
    assert_eq!(tree.len(), 0);
    assert!(!tree.is_dominated(&[1.0, 1.0, 1.0]));
    assert!(tree.window_collect(&Rect::from_origin(&[1.0, 1.0, 1.0])).is_empty());
    tree.check_invariants(true);
}

#[test]
fn single_point_roundtrip() {
    let mut tree = RTree::new(2);
    tree.insert(&[0.5, 0.5], 7);
    assert_eq!(tree.len(), 1);
    assert!(tree.is_dominated(&[0.6, 0.6]));
    assert!(!tree.is_dominated(&[0.5, 0.5]), "equal point must not dominate");
    assert!(!tree.is_dominated(&[0.4, 0.9]));
    assert!(tree.remove(&[0.5, 0.5], 7));
    assert!(!tree.remove(&[0.5, 0.5], 7), "double remove must fail");
    assert!(tree.is_empty());
    tree.check_invariants(true);
}

#[test]
fn dominance_vs_ext_dominance_on_ties() {
    let mut tree = RTree::new(2);
    tree.insert(&[1.0, 2.0], 1);
    // q shares the first coordinate: dominated, but not ext-dominated.
    assert!(tree.is_dominated(&[1.0, 3.0]));
    assert!(!tree.is_ext_dominated(&[1.0, 3.0]));
    assert!(tree.is_ext_dominated(&[1.5, 3.0]));
}

#[test]
fn duplicate_coordinates_coexist() {
    let mut tree = RTree::new(2);
    tree.insert(&[1.0, 1.0], 1);
    tree.insert(&[1.0, 1.0], 2);
    assert_eq!(tree.len(), 2);
    assert!(!tree.is_dominated(&[1.0, 1.0]));
    assert!(tree.remove(&[1.0, 1.0], 1));
    assert_eq!(tree.len(), 1);
    assert_eq!(tree.iter_all()[0].1, 2);
}

#[test]
fn splits_preserve_contents() {
    let mut tree = RTree::with_capacity_per_node(2, 4);
    let mut oracle = Oracle::default();
    let mut rng = StdRng::seed_from_u64(42);
    for id in 0..200u64 {
        let p = [rng.gen::<f64>(), rng.gen::<f64>()];
        tree.insert(&p, id);
        oracle.insert(&p, id);
    }
    tree.check_invariants(true);
    assert_eq!(tree.len(), 200);
    let all = Rect::new(&[0.0, 0.0], &[1.0, 1.0]);
    assert_eq!(sorted(tree.window_collect(&all)), sorted(oracle.window(&all)));
    assert!(tree.stats().height > 1, "200 points with fanout 4 must split");
}

#[test]
fn deletion_condenses_tree() {
    let mut tree = RTree::with_capacity_per_node(2, 4);
    let mut rng = StdRng::seed_from_u64(7);
    let mut pts = Vec::new();
    for id in 0..150u64 {
        let p = [rng.gen::<f64>(), rng.gen::<f64>()];
        tree.insert(&p, id);
        pts.push((p, id));
    }
    for (p, id) in &pts[..140] {
        assert!(tree.remove(p, *id));
        tree.check_invariants(true);
    }
    assert_eq!(tree.len(), 10);
    let remaining = sorted(tree.iter_all());
    let expected = sorted(pts[140..].iter().map(|(p, id)| (p.to_vec(), *id)).collect());
    assert_eq!(remaining, expected);
}

#[test]
fn remove_dominated_by_prunes_exactly() {
    let mut tree = RTree::new(2);
    tree.insert(&[2.0, 2.0], 1); // dominated by p
    tree.insert(&[1.0, 1.0], 2); // equal to p: kept
    tree.insert(&[1.0, 3.0], 3); // dominated (tied on x)
    tree.insert(&[0.5, 5.0], 4); // incomparable: kept
    let removed = tree.remove_dominated_by(&[1.0, 1.0]);
    let mut ids: Vec<u64> = removed.iter().map(|(_, id)| *id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 3]);
    assert_eq!(tree.len(), 2);
}

#[test]
fn remove_ext_dominated_keeps_ties() {
    let mut tree = RTree::new(2);
    tree.insert(&[2.0, 2.0], 1); // strictly greater everywhere: removed
    tree.insert(&[1.0, 3.0], 2); // tied on x: kept under ext-dominance
    let removed = tree.remove_ext_dominated_by(&[1.0, 1.0]);
    assert_eq!(removed.len(), 1);
    assert_eq!(removed[0].1, 1);
    assert_eq!(tree.len(), 1);
}

#[test]
fn bulk_load_matches_inserts() {
    let mut rng = StdRng::seed_from_u64(99);
    for &n in &[0usize, 1, 5, 16, 17, 100, 1000] {
        for &dim in &[1usize, 2, 3, 5] {
            let pts: Vec<(Vec<f64>, u64)> =
                (0..n).map(|i| ((0..dim).map(|_| rng.gen::<f64>()).collect(), i as u64)).collect();
            let refs: Vec<(&[f64], u64)> = pts.iter().map(|(p, id)| (p.as_slice(), *id)).collect();
            let tree = RTree::bulk_load(dim, &refs);
            assert_eq!(tree.len(), n, "bulk load n={n} dim={dim}");
            tree.check_invariants(false);
            assert_eq!(sorted(tree.iter_all()), sorted(pts.clone()));
        }
    }
}

#[test]
fn bulk_loaded_tree_supports_dynamic_ops() {
    let mut rng = StdRng::seed_from_u64(5);
    let pts: Vec<(Vec<f64>, u64)> = (0..300)
        .map(|i| (vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()], i as u64))
        .collect();
    let refs: Vec<(&[f64], u64)> = pts.iter().map(|(p, id)| (p.as_slice(), *id)).collect();
    let mut tree = RTree::bulk_load(3, &refs);
    tree.insert(&[0.5, 0.5, 0.5], 1000);
    assert!(tree.remove(&pts[0].0, 0));
    assert_eq!(tree.len(), 300);
    tree.check_invariants(false);
}

#[test]
fn stats_reflect_structure() {
    let mut tree = RTree::with_capacity_per_node(2, 8);
    for i in 0..100u64 {
        tree.insert(&[i as f64, (100 - i) as f64], i);
    }
    let s = tree.stats();
    assert_eq!(s.len, 100);
    assert!(s.height >= 2);
    assert!(s.nodes >= 100 / 8);
}

#[test]
#[should_panic(expected = "dimensionality mismatch")]
fn wrong_dim_insert_panics() {
    let mut tree = RTree::new(3);
    tree.insert(&[1.0, 2.0], 1);
}

#[test]
fn early_stop_window_visit() {
    let mut tree = RTree::new(1);
    for i in 0..50u64 {
        tree.insert(&[i as f64], i);
    }
    let mut seen = 0;
    let complete = tree.window(&Rect::new(&[0.0], &[100.0]), |_, _| {
        seen += 1;
        seen < 5
    });
    assert!(!complete);
    assert_eq!(seen, 5);
}

#[test]
fn nearest_neighbors_in_distance_order() {
    let mut tree = RTree::new(2);
    tree.insert(&[0.0, 0.0], 0);
    tree.insert(&[1.0, 0.0], 1);
    tree.insert(&[3.0, 0.0], 2);
    tree.insert(&[10.0, 10.0], 3);
    let got = tree.nearest(&[0.2, 0.0], 3);
    let ids: Vec<u64> = got.iter().map(|(_, id)| *id).collect();
    assert_eq!(ids, vec![0, 1, 2]);
    assert_eq!(tree.nearest(&[0.0, 0.0], 10).len(), 4, "k beyond size returns all");
    assert!(tree.nearest(&[0.0, 0.0], 0).is_empty());
}

#[test]
fn nearest_on_empty_tree() {
    let tree = RTree::new(3);
    assert!(tree.nearest(&[1.0, 1.0, 1.0], 5).is_empty());
}

/// FNV-1a over a pre-order walk of the tree: every node's kind, MBR bits
/// and entry count, and every point's coordinate bits and id, in stored
/// order.
fn shape_digest(tree: &RTree) -> u64 {
    fn word(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn walk(node: crate::NodeRef<'_>, h: &mut u64) {
        word(h, u64::from(node.is_leaf()));
        let (lo, hi) = node.mbr();
        for v in lo.iter().chain(hi) {
            word(h, v.to_bits());
        }
        for (coords, id) in node.points() {
            coords.iter().for_each(|v| word(h, v.to_bits()));
            word(h, id);
        }
        let children: Vec<_> = node.children().collect();
        word(h, children.len() as u64);
        for child in children {
            walk(child, h);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    walk(tree.root(), &mut h);
    h
}

/// How the pinned trees draw their coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Coords {
    /// Uniform in `[0, 1)`: no ties.
    Uniform,
    /// The quarter grid `{0, 0.25, 0.5, 0.75}`: equal coordinates, equal
    /// points and zero-volume boxes everywhere, and every seventh insert
    /// re-inserts a copy of a live entry, so `remove` must pick the same
    /// one of two identical entries.
    QuarterGrid,
}

fn draw(rng: &mut StdRng, k: usize, kind: Coords) -> Vec<f64> {
    match kind {
        Coords::Uniform => (0..k).map(|_| rng.gen::<f64>()).collect(),
        Coords::QuarterGrid => (0..k).map(|_| f64::from(rng.gen_range(0u32..4)) / 4.0).collect(),
    }
}

/// A seeded mix of inserts (with splits) and removes (with condensing and
/// reinsertion): 3000 inserts, every third followed by removing a random
/// live entry. For `k = 8`, uniform, this is the tree the original pin
/// was recorded on.
fn churned_tree(k: usize, kind: Coords) -> (RTree, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x7EE5);
    let mut tree = RTree::new(k);
    let mut live: Vec<(Vec<f64>, u64)> = Vec::new();
    for id in 0..3000u64 {
        let entry = match kind {
            Coords::QuarterGrid if id % 7 == 3 => live[rng.gen_range(0..live.len())].clone(),
            _ => (draw(&mut rng, k, kind), id),
        };
        tree.insert(&entry.0, entry.1);
        live.push(entry);
        if id % 3 == 2 {
            let (coords, victim) = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(tree.remove(&coords, victim));
        }
    }
    tree.check_invariants(true);
    (tree, rng)
}

/// FNV-1a fold of the ids two window queries visit, per probe `p`, in
/// visit order: `[0, p]` stopping at the first strict dominator (as the
/// skyline window's dominance check does), and all of `[p, ∞)`.
fn visit_digests(tree: &RTree, probes: &[Vec<f64>]) -> (u64, u64) {
    let fold = |h: &mut u64, v: u64| *h = (*h ^ v).wrapping_mul(0x0100_0000_01b3);
    let (mut down, mut up) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for p in probes {
        tree.window(&Rect::from_origin(p), |c, id| {
            fold(&mut down, id);
            !c.iter().zip(p).any(|(a, b)| a < b)
        });
        fold(&mut down, u64::MAX);
        tree.window(&Rect::to_infinity(p), |_, id| {
            fold(&mut up, id);
            true
        });
        fold(&mut up, u64::MAX);
    }
    (down, up)
}

#[test]
fn insert_remove_shape_and_visit_order_are_pinned() {
    // The skyline window's dominance-test counts depend on the tree's
    // shape, its entry order and the window traversal order, so all three
    // are pinned after a seeded mix of inserts (with splits) and removes
    // (with condensing and reinsertion), at the window's dimensionalities
    // and with and without coordinate ties.
    let (tree, _) = churned_tree(8, Coords::Uniform);
    let mut visits = 0xcbf2_9ce4_8422_2325u64;
    tree.window(&Rect::from_origin(&[0.7; 8]), |_, id| {
        visits = (visits ^ id).wrapping_mul(0x0100_0000_01b3);
        true
    });
    assert_eq!(tree.stats(), crate::TreeStats { len: 2000, height: 3, nodes: 195 });
    assert_eq!((shape_digest(&tree), visits), (15021306864244097934, 3034488160274493391));

    // (k, coordinates, stats, shape digest, [0, p] and [p, ∞) visit digests)
    type Row = (usize, Coords, (usize, usize, usize), u64, (u64, u64));
    #[rustfmt::skip]
    let table: [Row; 8] = [
        (2, Coords::Uniform, (2000, 3, 205), 9248856998695073259, (8521031847956311691, 9523258715490096674)),
        (3, Coords::Uniform, (2000, 3, 205), 9087723724620744663, (5491009578360347519, 5873545184352948866)),
        (6, Coords::Uniform, (2000, 3, 186), 7201096988147625463, (8116264517758123591, 1618827093065838244)),
        (8, Coords::Uniform, (2000, 3, 195), 15021306864244097934, (842818653680858211, 15020093523581714852)),
        (2, Coords::QuarterGrid, (2000, 4, 314), 6619384501562478281, (12568270747025710220, 8912891682825653842)),
        (3, Coords::QuarterGrid, (2000, 4, 314), 8209592684505268419, (4903506053289085603, 15436613059460488117)),
        (6, Coords::QuarterGrid, (2000, 4, 316), 12209093813573906847, (6351459462525337683, 1441004062316769824)),
        (8, Coords::QuarterGrid, (2000, 4, 312), 5362021736251129014, (16064637523681292057, 5524161551040278838)),
    ];
    let mut got = Vec::new();
    for (k, kind, ..) in table {
        let (tree, mut rng) = churned_tree(k, kind);
        let probes: Vec<Vec<f64>> = (0..32).map(|_| draw(&mut rng, k, kind)).collect();
        let s = tree.stats();
        got.push((
            k,
            kind,
            (s.len, s.height, s.nodes),
            shape_digest(&tree),
            visit_digests(&tree, &probes),
        ));
    }
    assert_eq!(got, table);
}

#[test]
fn bulk_load_shape_is_pinned() {
    // BBS walks a bulk-loaded tree, so the STR packing order (a stable
    // sort per axis, ties included) is pinned too.
    #[rustfmt::skip]
    let table: [(usize, Coords, u64); 8] = [
        (2, Coords::Uniform, 11344305194222751054),
        (3, Coords::Uniform, 5698972340035703488),
        (6, Coords::Uniform, 12704704735549468515),
        (8, Coords::Uniform, 4549977723961824775),
        (2, Coords::QuarterGrid, 5433255646248385135),
        (3, Coords::QuarterGrid, 11476891116302136586),
        (6, Coords::QuarterGrid, 1496678796306608386),
        (8, Coords::QuarterGrid, 16287866629060375953),
    ];
    let mut got = Vec::new();
    for (k, kind, _) in table {
        let mut rng = StdRng::seed_from_u64(0xB01C);
        let pts: Vec<(Vec<f64>, u64)> = (0..1500).map(|i| (draw(&mut rng, k, kind), i)).collect();
        let refs: Vec<(&[f64], u64)> = pts.iter().map(|(p, id)| (p.as_slice(), *id)).collect();
        let tree = RTree::bulk_load(k, &refs);
        tree.check_invariants(false);
        got.push((k, kind, shape_digest(&tree)));
    }
    assert_eq!(got, table);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// kNN agrees with a sort-by-distance linear scan.
    #[test]
    fn prop_knn_matches_linear_scan(
        pts in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 1..200),
        query in prop::collection::vec(0.0f64..1.0, 3),
        k in 1usize..12,
    ) {
        let mut tree = RTree::with_capacity_per_node(3, 5);
        for (i, p) in pts.iter().enumerate() {
            tree.insert(p, i as u64);
        }
        let got = tree.nearest(&query, k);
        let mut want: Vec<(f64, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let d2: f64 = p.iter().zip(&query).map(|(a, b)| (a - b) * (a - b)).sum();
                (d2, i as u64)
            })
            .collect();
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        want.truncate(k);
        // Compare distances (ids may tie at equal distance).
        let got_d: Vec<f64> = got
            .iter()
            .map(|(p, _)| p.iter().zip(&query).map(|(a, b)| (a - b) * (a - b)).sum())
            .collect();
        let want_d: Vec<f64> = want.iter().map(|(d, _)| *d).collect();
        prop_assert_eq!(got_d.len(), want_d.len());
        for (g, w) in got_d.iter().zip(&want_d) {
            prop_assert!((g - w).abs() < 1e-12, "distance mismatch: {} vs {}", g, w);
        }
    }

    /// Random insert/remove interleavings agree with the oracle and keep
    /// the structure valid, at every dimensionality the window uses; the
    /// two dominance windows `[0, p]` and `[p, ∞)` agree at the end.
    #[test]
    fn prop_dynamic_ops_match_oracle(
        ops in prop::collection::vec((prop::bool::ANY, 0u8..40, 0u8..40), 1..300),
        probes in prop::collection::vec((0u8..40, 0u8..40), 1..6),
        dim in 1usize..=8,
    ) {
        // Axis i takes a (even i) or b (odd i), shifted by 7 per pair of
        // axes: few distinct values, so ties and duplicates are common.
        let point = |a: u8, b: u8| -> Vec<f64> {
            (0..dim)
                .map(|i| {
                    let v = if i % 2 == 0 { a } else { b };
                    f64::from((u32::from(v) + 7 * (i as u32 / 2)) % 40) / 4.0
                })
                .collect()
        };
        let mut tree = RTree::with_capacity_per_node(dim, 5);
        let mut oracle = Oracle::default();
        let mut next_id = 0u64;
        let mut live: Vec<(Vec<f64>, u64)> = Vec::new();
        for (is_insert, a, b) in ops {
            if is_insert || live.is_empty() {
                let coords = point(a, b);
                tree.insert(&coords, next_id);
                oracle.insert(&coords, next_id);
                live.push((coords, next_id));
                next_id += 1;
            } else {
                let pick = (usize::from(a) * 7 + usize::from(b)) % live.len();
                let (coords, id) = live.swap_remove(pick);
                prop_assert!(tree.remove(&coords, id));
                prop_assert!(oracle.remove(&coords, id));
            }
            tree.check_invariants(true);
            prop_assert_eq!(tree.len(), oracle.points.len());
        }
        let everything = Rect::new(&vec![0.0; dim], &vec![10.0; dim]);
        prop_assert_eq!(sorted(tree.window_collect(&everything)), sorted(oracle.window(&everything)));
        for (a, b) in probes {
            let p = point(a, b);
            for w in [Rect::from_origin(&p), Rect::to_infinity(&p)] {
                prop_assert_eq!(sorted(tree.window_collect(&w)), sorted(oracle.window(&w)));
            }
        }
    }

    /// Window queries over random boxes agree with linear scan.
    #[test]
    fn prop_window_matches_oracle(
        pts in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 0..150),
        corners in prop::collection::vec((prop::collection::vec(0.0f64..1.0, 3), prop::collection::vec(0.0f64..1.0, 3)), 1..8),
    ) {
        let mut tree = RTree::with_capacity_per_node(3, 6);
        let mut oracle = Oracle::default();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(p, i as u64);
            oracle.insert(p, i as u64);
        }
        for (a, b) in corners {
            let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
            let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
            let w = Rect::new(&lo, &hi);
            prop_assert_eq!(sorted(tree.window_collect(&w)), sorted(oracle.window(&w)));
        }
    }

    /// Dominance predicates agree with linear scan, including ties from the
    /// coarse value grid.
    #[test]
    fn prop_dominance_matches_oracle(
        pts in prop::collection::vec(prop::collection::vec(0u8..6, 2), 1..100),
        probes in prop::collection::vec(prop::collection::vec(0u8..6, 2), 1..30),
    ) {
        let mut tree = RTree::new(2);
        let mut oracle = Oracle::default();
        for (i, p) in pts.iter().enumerate() {
            let coords: Vec<f64> = p.iter().map(|&v| f64::from(v)).collect();
            tree.insert(&coords, i as u64);
            oracle.insert(&coords, i as u64);
        }
        for probe in probes {
            let q: Vec<f64> = probe.iter().map(|&v| f64::from(v)).collect();
            prop_assert_eq!(tree.is_dominated(&q), oracle.is_dominated(&q));
            prop_assert_eq!(tree.is_ext_dominated(&q), oracle.is_ext_dominated(&q));
        }
    }

    /// remove_dominated_by removes exactly the dominated set.
    #[test]
    fn prop_remove_dominated(
        pts in prop::collection::vec(prop::collection::vec(0u8..5, 2), 1..80),
        probe in prop::collection::vec(0u8..5, 2),
    ) {
        let mut tree = RTree::new(2);
        let mut expected: Vec<u64> = Vec::new();
        let p: Vec<f64> = probe.iter().map(|&v| f64::from(v)).collect();
        for (i, raw) in pts.iter().enumerate() {
            let coords: Vec<f64> = raw.iter().map(|&v| f64::from(v)).collect();
            tree.insert(&coords, i as u64);
            let dominated = coords.iter().zip(&p).all(|(c, pv)| c >= pv)
                && coords.iter().zip(&p).any(|(c, pv)| c > pv);
            if dominated {
                expected.push(i as u64);
            }
        }
        let before = tree.len();
        let mut removed: Vec<u64> = tree.remove_dominated_by(&p).into_iter().map(|(_, id)| id).collect();
        removed.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(removed, expected.clone());
        prop_assert_eq!(tree.len(), before - expected.len());
        tree.check_invariants(true);
    }

    /// Bulk load stores exactly the input multiset for any size and dim.
    #[test]
    fn prop_bulk_load_roundtrip(
        pts in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 4), 0..400),
    ) {
        let owned: Vec<(Vec<f64>, u64)> =
            pts.into_iter().enumerate().map(|(i, p)| (p, i as u64)).collect();
        let refs: Vec<(&[f64], u64)> = owned.iter().map(|(p, id)| (p.as_slice(), *id)).collect();
        let tree = RTree::bulk_load(4, &refs);
        tree.check_invariants(false);
        prop_assert_eq!(sorted(tree.iter_all()), sorted(owned));
    }
}
