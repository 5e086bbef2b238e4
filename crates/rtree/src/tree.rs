//! The R-tree proper: arena-backed Guttman R-tree over points.

use crate::rect::{self, Rect};

/// Default maximum number of entries per node.
const DEFAULT_MAX: usize = 16;

/// Index of a node inside the arena.
type NodeId = usize;

/// A point stored in a leaf: its coordinates and a caller-supplied tag.
#[derive(Clone, Debug)]
struct PointEntry {
    coords: Box<[f64]>,
    id: u64,
}

/// One tree node. Leaves (`level == 0`) hold points; internal nodes hold
/// child node ids. `mbr` always tightly bounds the node's contents.
#[derive(Clone, Debug)]
struct Node {
    level: u32,
    mbr: Rect,
    children: Vec<NodeId>,
    points: Vec<PointEntry>,
}

impl Node {
    fn leaf(dim: usize) -> Self {
        Node { level: 0, mbr: Rect::empty(dim), children: Vec::new(), points: Vec::new() }
    }

    fn internal(dim: usize, level: u32) -> Self {
        Node { level, mbr: Rect::empty(dim), children: Vec::new(), points: Vec::new() }
    }

    fn entry_count(&self) -> usize {
        if self.level == 0 {
            self.points.len()
        } else {
            self.children.len()
        }
    }
}

/// Structural statistics, mainly for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of stored points.
    pub len: usize,
    /// Height of the tree (a lone leaf root has height 1).
    pub height: usize,
    /// Total number of nodes, internal and leaf.
    pub nodes: usize,
}

/// A main-memory R-tree over `dim`-dimensional points.
///
/// See the [crate docs](crate) for the role this plays in SKYPEER. The tree
/// is not self-balancing in the R*-sense; it is the classic Guttman variant
/// with quadratic split, which is what the paper's era of systems used and
/// is plenty for the in-memory skyline workloads here.
#[derive(Clone, Debug)]
pub struct RTree {
    dim: usize,
    max_entries: usize,
    min_entries: usize,
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    root: NodeId,
    len: usize,
}

impl RTree {
    /// Creates an empty tree over `dim`-dimensional points with the default
    /// node capacity.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity_per_node(dim, DEFAULT_MAX)
    }

    /// Creates an empty tree with an explicit node fan-out `max_entries`
    /// (minimum fill is 40% of it, per the usual heuristic).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `max_entries < 4`.
    pub fn with_capacity_per_node(dim: usize, max_entries: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert!(max_entries >= 4, "node capacity must be at least 4");
        let root = Node::leaf(dim);
        RTree {
            dim,
            max_entries,
            min_entries: (max_entries * 2 / 5).max(1),
            nodes: vec![root],
            free: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    /// Bulk-loads a tree from points using Sort-Tile-Recursive packing.
    ///
    /// Considerably faster and better-packed than repeated insertion; used
    /// when a super-peer (re)builds its query index over a known point set.
    ///
    /// # Panics
    ///
    /// Panics if any point has dimensionality other than `dim`.
    pub fn bulk_load(dim: usize, points: &[(&[f64], u64)]) -> Self {
        skypeer_obs::scope!("rtree::bulk_load");
        let mut tree = Self::new(dim);
        if points.is_empty() {
            return tree;
        }
        let mut entries: Vec<PointEntry> = points
            .iter()
            .map(|(coords, id)| {
                assert_eq!(coords.len(), dim, "point dimensionality mismatch");
                PointEntry { coords: (*coords).into(), id: *id }
            })
            .collect();
        tree.len = entries.len();

        // Build the leaf level by recursive tiling, then pack upward.
        let leaf_ids = tree.str_pack_leaves(&mut entries);
        tree.root = tree.pack_levels(leaf_ids, 1);
        tree
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality the tree was created with.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Inserts a point with a caller-supplied tag. Duplicate coordinates and
    /// duplicate tags are allowed; the tree stores every inserted entry.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != self.dim()`.
    pub fn insert(&mut self, coords: &[f64], id: u64) {
        assert_eq!(coords.len(), self.dim, "point dimensionality mismatch");
        let entry = PointEntry { coords: coords.into(), id };
        self.insert_entry(entry);
        self.len += 1;
    }

    /// Removes one entry with exactly these coordinates and tag. Returns
    /// whether an entry was found and removed.
    pub fn remove(&mut self, coords: &[f64], id: u64) -> bool {
        assert_eq!(coords.len(), self.dim, "point dimensionality mismatch");
        let mut path = Vec::new();
        if !self.find_path(self.root, coords, id, &mut path) {
            return false;
        }
        let leaf = *path.last().expect("find_path returned an empty path");
        let node = &mut self.nodes[leaf];
        let pos = node
            .points
            .iter()
            .position(|p| p.id == id && *p.coords == *coords)
            .expect("find_path returned a leaf without the entry");
        node.points.swap_remove(pos);
        self.len -= 1;
        self.condense_path(&path);
        true
    }

    /// Visits every stored point whose coordinates lie inside `window`
    /// (boundaries inclusive). The visitor returns `false` to stop early;
    /// the method returns `false` iff the visit was stopped.
    pub fn window<F: FnMut(&[f64], u64) -> bool>(&self, window: &Rect, mut visit: F) -> bool {
        skypeer_obs::scope!("rtree::window");
        assert_eq!(window.dim(), self.dim, "window dimensionality mismatch");
        if self.len == 0 {
            return true;
        }
        self.window_rec(self.root, window, &mut visit)
    }

    /// Collects every `(coords, id)` inside `window`.
    pub fn window_collect(&self, window: &Rect) -> Vec<(Vec<f64>, u64)> {
        let mut out = Vec::new();
        self.window(window, |coords, id| {
            out.push((coords.to_vec(), id));
            true
        });
        out
    }

    /// Whether any stored point *dominates* `q` under minimization: lies in
    /// `[0, q]` on every axis and is strictly smaller on at least one.
    ///
    /// Points exactly equal to `q` do not dominate it, matching the skyline
    /// dominance definition.
    pub fn is_dominated(&self, q: &[f64]) -> bool {
        let region = Rect::from_origin(q);
        !self.window(&region, |coords, _| {
            // Inside [0, q] already means <= on every axis; equality on all
            // axes is the only non-dominating case.
            let strictly_somewhere = coords.iter().zip(q).any(|(c, qv)| c < qv);
            !strictly_somewhere // keep searching only while not a dominator
        })
    }

    /// Whether any stored point *ext-dominates* `q`: strictly smaller on
    /// every axis (Definition 1 of the paper).
    pub fn is_ext_dominated(&self, q: &[f64]) -> bool {
        let region = Rect::from_origin(q);
        !self.window(&region, |coords, _| {
            let strict_everywhere = coords.iter().zip(q).all(|(c, qv)| c < qv);
            !strict_everywhere
        })
    }

    /// Removes and returns every stored point dominated by `p` (>= on every
    /// axis, strictly greater somewhere).
    pub fn remove_dominated_by(&mut self, p: &[f64]) -> Vec<(Vec<f64>, u64)> {
        let region = Rect::to_infinity(p);
        let victims: Vec<(Vec<f64>, u64)> = self
            .window_collect(&region)
            .into_iter()
            .filter(|(coords, _)| coords.iter().zip(p).any(|(c, pv)| c > pv))
            .collect();
        for (coords, id) in &victims {
            let removed = self.remove(coords, *id);
            debug_assert!(removed, "window query returned a phantom entry");
        }
        victims
    }

    /// Removes and returns every stored point ext-dominated by `p`
    /// (strictly greater on every axis).
    pub fn remove_ext_dominated_by(&mut self, p: &[f64]) -> Vec<(Vec<f64>, u64)> {
        let region = Rect::to_infinity(p);
        let victims: Vec<(Vec<f64>, u64)> = self
            .window_collect(&region)
            .into_iter()
            .filter(|(coords, _)| coords.iter().zip(p).all(|(c, pv)| c > pv))
            .collect();
        for (coords, id) in &victims {
            let removed = self.remove(coords, *id);
            debug_assert!(removed, "window query returned a phantom entry");
        }
        victims
    }

    /// The `k` nearest stored points to `query` by Euclidean distance,
    /// closest first (ties broken by insertion order). Best-first search
    /// over node MBRs; returns fewer than `k` when the tree is smaller.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<(Vec<f64>, u64)> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // Min-heap over (distance², seq) of nodes and points.
        #[derive(PartialEq)]
        struct Cand {
            d2: f64,
            seq: u64,
            node: Option<NodeId>,
            point: Option<(Vec<f64>, u64)>,
        }
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .d2
                    .partial_cmp(&self.d2)
                    .expect("distances are finite")
                    .then_with(|| other.seq.cmp(&self.seq))
            }
        }
        let mbr_dist2 = |r: &Rect, q: &[f64]| -> f64 {
            q.iter()
                .enumerate()
                .map(|(i, &v)| {
                    let lo = r.lo()[i];
                    let hi = r.hi()[i];
                    let d = if v < lo {
                        lo - v
                    } else if v > hi {
                        v - hi
                    } else {
                        0.0
                    };
                    d * d
                })
                .sum()
        };
        let point_dist2 =
            |p: &[f64], q: &[f64]| -> f64 { p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum() };

        let mut heap = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        heap.push(Cand {
            d2: mbr_dist2(&self.nodes[self.root].mbr, query),
            seq,
            node: Some(self.root),
            point: None,
        });
        seq += 1;
        let mut out = Vec::with_capacity(k);
        while let Some(cand) = heap.pop() {
            match (cand.node, cand.point) {
                (Some(nid), _) => {
                    let node = &self.nodes[nid];
                    if node.level == 0 {
                        for p in &node.points {
                            heap.push(Cand {
                                d2: point_dist2(&p.coords, query),
                                seq,
                                node: None,
                                point: Some((p.coords.to_vec(), p.id)),
                            });
                            seq += 1;
                        }
                    } else {
                        for &c in &node.children {
                            heap.push(Cand {
                                d2: mbr_dist2(&self.nodes[c].mbr, query),
                                seq,
                                node: Some(c),
                                point: None,
                            });
                            seq += 1;
                        }
                    }
                }
                (None, Some(p)) => {
                    out.push(p);
                    if out.len() == k {
                        break;
                    }
                }
                (None, None) => unreachable!("candidate is a node or a point"),
            }
        }
        out
    }

    /// Collects all stored `(coords, id)` pairs in unspecified order.
    pub fn iter_all(&self) -> Vec<(Vec<f64>, u64)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(nid) = stack.pop() {
            let node = &self.nodes[nid];
            if node.level == 0 {
                out.extend(node.points.iter().map(|p| (p.coords.to_vec(), p.id)));
            } else {
                stack.extend_from_slice(&node.children);
            }
        }
        out
    }

    /// A read-only handle to the root node, for algorithms that steer
    /// their own traversal (e.g. best-first search in BBS).
    pub fn root(&self) -> NodeRef<'_> {
        NodeRef { tree: self, id: self.root }
    }

    /// Structural statistics (length, height, node count).
    pub fn stats(&self) -> TreeStats {
        let mut nodes = 0usize;
        let mut stack = vec![self.root];
        while let Some(nid) = stack.pop() {
            nodes += 1;
            let node = &self.nodes[nid];
            if node.level > 0 {
                stack.extend_from_slice(&node.children);
            }
        }
        TreeStats { len: self.len, height: self.nodes[self.root].level as usize + 1, nodes }
    }

    /// Verifies every structural invariant, panicking with a description on
    /// the first violation. Intended for tests; O(n).
    ///
    /// `strict_fill` additionally enforces minimum node fill for non-root
    /// nodes. STR bulk loading legitimately produces one trailing underfull
    /// node per level, so pass `false` for bulk-loaded trees.
    pub fn check_invariants(&self, strict_fill: bool) {
        let mut counted = 0usize;
        self.check_node(self.root, None, strict_fill, &mut counted);
        assert_eq!(counted, self.len, "stored length {} != counted points {}", self.len, counted);
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = node;
            id
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn release(&mut self, id: NodeId) {
        self.free.push(id);
    }

    fn check_node(
        &self,
        nid: NodeId,
        expected_level: Option<u32>,
        strict_fill: bool,
        counted: &mut usize,
    ) {
        let node = &self.nodes[nid];
        if let Some(lvl) = expected_level {
            assert_eq!(node.level, lvl, "node {nid} at wrong level");
        }
        let is_root = nid == self.root;
        let count = node.entry_count();
        if !is_root {
            assert!(count >= 1, "non-root node {nid} is empty");
            if strict_fill {
                assert!(
                    count >= self.min_entries,
                    "non-root node {nid} underfull: {count} < {}",
                    self.min_entries
                );
            }
        }
        assert!(count <= self.max_entries, "node {nid} overfull: {count}");
        if node.level == 0 {
            assert!(node.children.is_empty(), "leaf {nid} has children");
            *counted += node.points.len();
            let mut mbr = Rect::empty(self.dim);
            for p in &node.points {
                mbr.grow_point(&p.coords);
            }
            if !node.points.is_empty() {
                assert_eq!(mbr, node.mbr, "leaf {nid} MBR not tight");
            }
        } else {
            assert!(node.points.is_empty(), "internal node {nid} has points");
            assert!(!node.children.is_empty(), "internal node {nid} childless");
            let mut mbr = Rect::empty(self.dim);
            for &c in &node.children {
                mbr.grow(&self.nodes[c].mbr);
                self.check_node(c, Some(node.level - 1), strict_fill, counted);
            }
            assert_eq!(mbr, node.mbr, "internal node {nid} MBR not tight");
        }
    }

    fn window_rec<F: FnMut(&[f64], u64) -> bool>(
        &self,
        nid: NodeId,
        window: &Rect,
        visit: &mut F,
    ) -> bool {
        let node = &self.nodes[nid];
        if node.entry_count() == 0 || !node.mbr.intersects(window) {
            return true;
        }
        if node.level == 0 {
            for p in &node.points {
                if window.contains_point(&p.coords) && !visit(&p.coords, p.id) {
                    return false;
                }
            }
        } else {
            for &c in &node.children {
                if !self.window_rec(c, window, visit) {
                    return false;
                }
            }
        }
        true
    }

    /// Finds the leaf holding an entry with these coordinates and id,
    /// recording the root-to-leaf path in `path`. Returns whether found.
    fn find_path(&self, nid: NodeId, coords: &[f64], id: u64, path: &mut Vec<NodeId>) -> bool {
        let node = &self.nodes[nid];
        if node.entry_count() == 0 || !node.mbr.contains_point(coords) {
            return false;
        }
        path.push(nid);
        if node.level == 0 {
            if node.points.iter().any(|p| p.id == id && *p.coords == *coords) {
                return true;
            }
            path.pop();
            return false;
        }
        for &c in &node.children {
            if self.find_path(c, coords, id, path) {
                return true;
            }
        }
        path.pop();
        false
    }

    // --- insertion -----------------------------------------------------

    fn insert_entry(&mut self, entry: PointEntry) {
        if let Some(new_node) = self.insert_rec(self.root, entry) {
            self.grow_root(new_node);
        }
    }

    /// Recursive insert. Returns a freshly split-off sibling of `nid` if the
    /// node overflowed, to be installed by the caller.
    fn insert_rec(&mut self, nid: NodeId, entry: PointEntry) -> Option<NodeId> {
        let node = &mut self.nodes[nid];
        if node.level == 0 {
            if node.points.is_empty() {
                node.mbr.set_point(&entry.coords);
            } else {
                node.mbr.grow_point(&entry.coords);
            }
            node.points.push(entry);
            if node.points.len() > self.max_entries {
                return Some(self.split_leaf(nid));
            }
            return None;
        }

        // The subtree gains exactly this point, and a split below only
        // redistributes it, so the tight MBR grows by the point in place.
        node.mbr.grow_point(&entry.coords);
        let chosen = self.choose_subtree(nid, &entry.coords);
        if let Some(sibling) = self.insert_rec(chosen, entry) {
            self.nodes[nid].children.push(sibling);
            if self.nodes[nid].children.len() > self.max_entries {
                return Some(self.split_internal(nid));
            }
        }
        None
    }

    /// Guttman's ChooseLeaf step: least enlargement, ties by least volume.
    fn choose_subtree(&self, nid: NodeId, point: &[f64]) -> NodeId {
        let node = &self.nodes[nid];
        let mut best = node.children[0];
        let mut best_enl = f64::INFINITY;
        let mut best_vol = f64::INFINITY;
        for &c in &node.children {
            let mbr = &self.nodes[c].mbr;
            let vol = mbr.volume();
            let enl = rect::union_volume(mbr.lo(), mbr.hi(), point, point) - vol;
            if enl < best_enl || (enl == best_enl && vol < best_vol) {
                best = c;
                best_enl = enl;
                best_vol = vol;
            }
        }
        best
    }

    fn grow_root(&mut self, sibling: NodeId) {
        let old_root = self.root;
        let level = self.nodes[old_root].level + 1;
        let mut new_root = Node::internal(self.dim, level);
        new_root.children.push(old_root);
        new_root.children.push(sibling);
        let rid = self.alloc(new_root);
        self.root = rid;
        self.recompute_mbr(rid);
    }

    /// Recomputes the tight MBR of `nid` from its contents, reusing the
    /// node's own rectangle.
    fn recompute_mbr(&mut self, nid: NodeId) {
        let mut mbr = std::mem::replace(&mut self.nodes[nid].mbr, Rect::placeholder());
        mbr.clear();
        let node = &self.nodes[nid];
        if node.level == 0 {
            for p in &node.points {
                mbr.grow_point(&p.coords);
            }
        } else {
            for &c in &node.children {
                mbr.grow(&self.nodes[c].mbr);
            }
        }
        self.nodes[nid].mbr = mbr;
    }

    // --- quadratic split -----------------------------------------------

    fn split_leaf(&mut self, nid: NodeId) -> NodeId {
        let points = std::mem::take(&mut self.nodes[nid].points);
        let (left_idx, right_idx) =
            self.quadratic_partition(points.len(), |i| (&points[i].coords, &points[i].coords));
        let mut right_points = Vec::with_capacity(right_idx.len());
        let mut left_points = Vec::with_capacity(left_idx.len());
        let mut points: Vec<Option<PointEntry>> = points.into_iter().map(Some).collect();
        for i in left_idx {
            left_points.push(points[i].take().expect("index assigned twice in split"));
        }
        for i in right_idx {
            right_points.push(points[i].take().expect("index assigned twice in split"));
        }
        self.nodes[nid].points = left_points;
        self.recompute_mbr(nid);
        let mut sibling = Node::leaf(self.dim);
        sibling.points = right_points;
        let sid = self.alloc(sibling);
        self.recompute_mbr(sid);
        sid
    }

    fn split_internal(&mut self, nid: NodeId) -> NodeId {
        let children = std::mem::take(&mut self.nodes[nid].children);
        let (left_idx, right_idx) = self.quadratic_partition(children.len(), |i| {
            let mbr = &self.nodes[children[i]].mbr;
            (mbr.lo(), mbr.hi())
        });
        let left: Vec<NodeId> = left_idx.iter().map(|&i| children[i]).collect();
        let right: Vec<NodeId> = right_idx.iter().map(|&i| children[i]).collect();
        let level = self.nodes[nid].level;
        self.nodes[nid].children = left;
        self.recompute_mbr(nid);
        let mut sibling = Node::internal(self.dim, level);
        sibling.children = right;
        let sid = self.alloc(sibling);
        self.recompute_mbr(sid);
        sid
    }

    /// Guttman's quadratic split over `n` boxes, box `i` given by its
    /// corners `corners(i)`: returns the two index groups. Both groups are
    /// guaranteed at least `min_entries` members (assuming
    /// `n > max_entries >= 2 * min_entries`).
    ///
    /// Each box's volume is computed once, and each group MBR's volume once
    /// per PickNext round; every value equals what the per-use
    /// [`Rect::volume`]/[`Rect::enlargement`] calls produce, so the split
    /// is the same.
    fn quadratic_partition<'a>(
        &self,
        n: usize,
        corners: impl Fn(usize) -> (&'a [f64], &'a [f64]),
    ) -> (Vec<usize>, Vec<usize>) {
        debug_assert!(n >= 2);
        let volumes: Vec<f64> = (0..n)
            .map(|i| {
                let (lo, hi) = corners(i);
                rect::volume(lo, hi)
            })
            .collect();

        // PickSeeds: the pair wasting the most area together.
        let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
        for i in 0..n {
            let (lo_i, hi_i) = corners(i);
            for j in (i + 1)..n {
                let (lo_j, hi_j) = corners(j);
                let waste = rect::union_volume(lo_i, hi_i, lo_j, hi_j) - volumes[i] - volumes[j];
                if waste > worst {
                    worst = waste;
                    seed_a = i;
                    seed_b = j;
                }
            }
        }

        let mut group_a = vec![seed_a];
        let mut group_b = vec![seed_b];
        let (lo, hi) = corners(seed_a);
        let mut mbr_a = Rect::from_corners(lo, hi);
        let (lo, hi) = corners(seed_b);
        let mut mbr_b = Rect::from_corners(lo, hi);
        let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed_a && i != seed_b).collect();

        while !remaining.is_empty() {
            // If one group must absorb everything to reach minimum fill, do it.
            if group_a.len() + remaining.len() <= self.min_entries {
                group_a.append(&mut remaining);
                break;
            }
            if group_b.len() + remaining.len() <= self.min_entries {
                group_b.append(&mut remaining);
                break;
            }
            // PickNext: entry with maximal preference difference.
            let (va, vb) = (mbr_a.volume(), mbr_b.volume());
            let enlargements = |i: usize| {
                let (lo, hi) = corners(i);
                (
                    rect::union_volume(mbr_a.lo(), mbr_a.hi(), lo, hi) - va,
                    rect::union_volume(mbr_b.lo(), mbr_b.hi(), lo, hi) - vb,
                )
            };
            let (mut pick_pos, mut pick_diff) = (0, f64::NEG_INFINITY);
            for (pos, &i) in remaining.iter().enumerate() {
                let (da, db) = enlargements(i);
                let diff = (da - db).abs();
                if diff > pick_diff {
                    pick_diff = diff;
                    pick_pos = pos;
                }
            }
            let i = remaining.swap_remove(pick_pos);
            let (da, db) = enlargements(i);
            // Prefer smaller enlargement; break ties by volume then count.
            let to_a = match da.partial_cmp(&db) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => {
                    if va != vb {
                        va < vb
                    } else {
                        group_a.len() <= group_b.len()
                    }
                }
            };
            let (lo, hi) = corners(i);
            if to_a {
                group_a.push(i);
                mbr_a.grow_corners(lo, hi);
            } else {
                group_b.push(i);
                mbr_b.grow_corners(lo, hi);
            }
        }
        (group_a, group_b)
    }

    // --- deletion --------------------------------------------------------

    /// After removing a point from the leaf at the end of `path`, restore
    /// invariants along the root path only (Guttman's CondenseTree):
    /// dissolve underfull nodes bottom-up, reinsert their orphaned points,
    /// and tighten ancestor MBRs.
    fn condense_path(&mut self, path: &[NodeId]) {
        let mut orphaned: Vec<PointEntry> = Vec::new();
        for i in (1..path.len()).rev() {
            let nid = path[i];
            let parent = path[i - 1];
            if self.nodes[nid].entry_count() < self.min_entries {
                let pos = self.nodes[parent]
                    .children
                    .iter()
                    .position(|&c| c == nid)
                    .expect("condense path child not under its parent");
                self.nodes[parent].children.swap_remove(pos);
                self.orphan_subtree(nid, &mut orphaned);
            } else {
                self.recompute_mbr(nid);
            }
        }
        self.recompute_mbr(self.root);
        // Shrink a root that lost all but one child.
        while self.nodes[self.root].level > 0 && self.nodes[self.root].children.len() == 1 {
            let only = self.nodes[self.root].children[0];
            self.release(self.root);
            self.root = only;
        }
        if self.nodes[self.root].level > 0 && self.nodes[self.root].children.is_empty() {
            // Everything was deleted: reset to an empty leaf root.
            let dim = self.dim;
            self.release(self.root);
            let leaf = self.alloc(Node::leaf(dim));
            self.root = leaf;
        }
        for entry in orphaned {
            self.insert_entry(entry);
        }
    }

    fn orphan_subtree(&mut self, nid: NodeId, orphaned: &mut Vec<PointEntry>) {
        let node = std::mem::replace(&mut self.nodes[nid], Node::leaf(self.dim));
        if node.level == 0 {
            orphaned.extend(node.points);
        } else {
            for c in node.children {
                self.orphan_subtree(c, orphaned);
            }
        }
        self.release(nid);
    }

    // --- STR bulk load ---------------------------------------------------

    /// Packs point entries into leaves via Sort-Tile-Recursive and returns
    /// the leaf node ids in packing order.
    fn str_pack_leaves(&mut self, entries: &mut [PointEntry]) -> Vec<NodeId> {
        let cap = self.max_entries;
        let mut leaves = Vec::with_capacity(entries.len().div_ceil(cap));
        self.str_tile(entries, 0, cap, &mut |tree: &mut Self, chunk: &mut [PointEntry]| {
            let mut leaf = Node::leaf(tree.dim);
            leaf.points = chunk.to_vec();
            let id = tree.alloc(leaf);
            tree.recompute_mbr(id);
            leaves.push(id);
        });
        leaves
    }

    /// Recursive tiling: sort by `axis`, cut into slabs sized so that the
    /// remaining axes can tile each slab, recurse; emit chunks of `cap` at
    /// the final axis.
    fn str_tile(
        &mut self,
        entries: &mut [PointEntry],
        axis: usize,
        cap: usize,
        emit: &mut impl FnMut(&mut Self, &mut [PointEntry]),
    ) {
        if entries.is_empty() {
            return;
        }
        if axis + 1 == self.dim || entries.len() <= cap {
            entries.sort_by(|a, b| {
                a.coords[axis].partial_cmp(&b.coords[axis]).expect("NaN coordinate in R-tree")
            });
            for chunk in entries.chunks_mut(cap) {
                emit(self, chunk);
            }
            return;
        }
        entries.sort_by(|a, b| {
            a.coords[axis].partial_cmp(&b.coords[axis]).expect("NaN coordinate in R-tree")
        });
        let n_leaves = entries.len().div_ceil(cap);
        let remaining_axes = (self.dim - axis) as f64;
        let slabs = (n_leaves as f64).powf(1.0 / remaining_axes).ceil() as usize;
        let slab_size = entries.len().div_ceil(slabs.max(1));
        for slab in entries.chunks_mut(slab_size.max(1)) {
            self.str_tile(slab, axis + 1, cap, emit);
        }
    }

    /// Packs one level of nodes into parents until a single root remains.
    fn pack_levels(&mut self, mut level_nodes: Vec<NodeId>, mut level: u32) -> NodeId {
        while level_nodes.len() > 1 {
            let mut parents = Vec::with_capacity(level_nodes.len().div_ceil(self.max_entries));
            for chunk in level_nodes.chunks(self.max_entries) {
                let mut parent = Node::internal(self.dim, level);
                parent.children = chunk.to_vec();
                let pid = self.alloc(parent);
                self.recompute_mbr(pid);
                parents.push(pid);
            }
            level_nodes = parents;
            level += 1;
        }
        level_nodes.pop().expect("pack_levels called with no nodes")
    }
}

/// A read-only view of one tree node, for caller-steered traversals.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    tree: &'a RTree,
    id: NodeId,
}

impl<'a> NodeRef<'a> {
    /// The node's minimum bounding rectangle. Meaningless (inverted
    /// "empty" box) only for an empty root leaf.
    pub fn mbr(&self) -> &'a Rect {
        &self.tree.nodes[self.id].mbr
    }

    /// Whether this is a leaf node.
    pub fn is_leaf(&self) -> bool {
        self.tree.nodes[self.id].level == 0
    }

    /// Child nodes (empty for leaves).
    pub fn children(&self) -> impl Iterator<Item = NodeRef<'a>> + '_ {
        let tree = self.tree;
        self.tree.nodes[self.id].children.iter().map(move |&c| NodeRef { tree, id: c })
    }

    /// Points stored in this leaf (empty for internal nodes).
    pub fn points(&self) -> impl Iterator<Item = (&'a [f64], u64)> + '_ {
        self.tree.nodes[self.id].points.iter().map(|p| (&*p.coords, p.id))
    }
}
