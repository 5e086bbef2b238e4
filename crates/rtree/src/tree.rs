//! The R-tree proper: a Guttman R-tree over points whose nodes are pages
//! in one arena.
//!
//! Every node is one page of `max_entries + 1` slots, so an overflowing
//! node holds its extra entry until it splits. A leaf page holds its
//! points' coordinates contiguously (`slots × dim` values) and their ids;
//! an internal page holds its children's page ids and their bounding boxes
//! contiguously (`slots × 2·dim` values), so a traversal tests every child
//! box without touching the child. A node's box lives in its parent's page;
//! the root's box lives in the tree. Released pages go on a free list of
//! their kind and are reused. Nothing is allocated per entry, and once the arena and the
//! scratch buffers have grown, inserts and removes allocate nothing.

use crate::rect::{self, Rect};

/// Default maximum number of entries per node.
const DEFAULT_MAX: usize = 16;

/// Index of a page inside the arena.
type PageId = usize;

/// Slot index meaning "no parent": the root's entry on a removal path.
const NO_SLOT: usize = usize::MAX;

/// Evaluates `$body` with the constant `$k` equal to `$dim` for one to
/// eight dimensions, and 0 above. Code that cuts its slices with [`fixed`]
/// then has every loop over the axes unrolled: the volume arithmetic runs
/// the same operations in the same order, without per-axis overhead.
macro_rules! by_dim {
    (@const $n:literal, $k:ident, $body:expr) => {{
        const $k: usize = $n;
        $body
    }};
    ($dim:expr, $k:ident => $body:expr) => {
        match $dim {
            1 => by_dim!(@const 1, $k, $body),
            2 => by_dim!(@const 2, $k, $body),
            3 => by_dim!(@const 3, $k, $body),
            4 => by_dim!(@const 4, $k, $body),
            5 => by_dim!(@const 5, $k, $body),
            6 => by_dim!(@const 6, $k, $body),
            7 => by_dim!(@const 7, $k, $body),
            8 => by_dim!(@const 8, $k, $body),
            _ => by_dim!(@const 0, $k, $body),
        }
    };
}

/// The first `K` values of `v` (a point or a corner), a slice of constant
/// length, or all of `v` when `K == 0`.
#[inline(always)]
fn fixed<const K: usize>(v: &[f64]) -> &[f64] {
    if K == 0 {
        v
    } else {
        &v[..K]
    }
}

/// [`fixed`] for a box: its first `2·K` values.
#[inline(always)]
fn fixed_box<const K: usize>(b: &[f64]) -> &[f64] {
    if K == 0 {
        b
    } else {
        &b[..2 * K]
    }
}

/// A page's level (0 for a leaf), number of occupied slots, and where its
/// values start in the arena.
#[derive(Clone, Copy, Debug)]
struct PageHead {
    level: u32,
    len: usize,
    base: usize,
}

/// Guttman's quadratic split bookkeeping, kept between splits.
#[derive(Clone, Debug, Default)]
struct Partition {
    volumes: Vec<f64>,
    group_a: Vec<usize>,
    group_b: Vec<usize>,
    remaining: Vec<usize>,
    /// The two groups' boxes, each `lo` then `hi`.
    box_a: Vec<f64>,
    box_b: Vec<f64>,
    /// Per entry, the enlargement of each group's box to cover it.
    enl_a: Vec<f64>,
    enl_b: Vec<f64>,
}

/// Buffers one operation fills and the next reuses.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// A removal's root-to-leaf path: each page and its slot in its parent.
    path: Vec<(PageId, usize)>,
    /// Points of dissolved pages, in orphaning order, awaiting reinsertion.
    orphan_ids: Vec<u64>,
    orphan_coords: Vec<f64>,
    /// The entries of the page being split.
    split_ids: Vec<u64>,
    split_vals: Vec<f64>,
    part: Partition,
    /// A box being folded from a page's entries.
    fold: Vec<f64>,
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
    /// Slots per page: `max_entries + 1`.
    slots: usize,
    /// Per page.
    heads: Vec<PageHead>,
    /// `slots` per page: a leaf's point ids, an internal page's child pages.
    ids: Vec<u64>,
    /// From each page's `base`: a leaf's coordinates (`slots × dim`
    /// values) or an internal page's child boxes (`slots × 2·dim`).
    vals: Vec<f64>,
    /// Released leaf pages and released internal pages.
    free: [Vec<PageId>; 2],
    root: PageId,
    /// The root page's box, `lo` then `hi`; the empty box for an empty tree.
    root_box: Vec<f64>,
    len: usize,
    scratch: Scratch,
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
        let mut root_box = vec![0.0; 2 * dim];
        rect::clear(&mut root_box);
        let mut tree = RTree {
            dim,
            max_entries,
            min_entries: (max_entries * 2 / 5).max(1),
            slots: max_entries + 1,
            heads: Vec::new(),
            ids: Vec::new(),
            vals: Vec::new(),
            free: [Vec::new(), Vec::new()],
            root: 0,
            root_box,
            len: 0,
            scratch: Scratch::default(),
        };
        tree.root = tree.alloc(0);
        tree
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
        for (coords, _) in points {
            assert_eq!(coords.len(), dim, "point dimensionality mismatch");
        }
        tree.len = points.len();
        // Build the leaf level by recursive tiling, then pack upward. The
        // empty root page becomes the first leaf.
        tree.release(tree.root);
        let mut order: Vec<usize> = (0..points.len()).collect();
        let mut leaves = Vec::with_capacity(points.len().div_ceil(tree.max_entries));
        tree.str_tile(points, &mut order, 0, &mut leaves);
        tree.root = tree.pack_levels(leaves, 1);
        tree.refold_root();
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
        skypeer_obs::scope!("rtree::insert");
        assert_eq!(coords.len(), self.dim, "point dimensionality mismatch");
        self.insert_entry(coords, id);
        self.len += 1;
    }

    /// Removes one entry with exactly these coordinates and tag. Returns
    /// whether an entry was found and removed.
    pub fn remove(&mut self, coords: &[f64], id: u64) -> bool {
        skypeer_obs::scope!("rtree::remove");
        assert_eq!(coords.len(), self.dim, "point dimensionality mismatch");
        let mut path = std::mem::take(&mut self.scratch.path);
        path.clear();
        let in_root = self.heads[self.root].len > 0 && rect::contains(&self.root_box, coords);
        let slot = if in_root {
            by_dim!(self.dim, K => self.find_path::<K>(self.root, NO_SLOT, coords, id, &mut path))
        } else {
            None
        };
        if let Some(slot) = slot {
            let (leaf, _) = *path.last().expect("find_path returned an empty path");
            self.swap_remove(leaf, slot);
            self.len -= 1;
            self.condense_path(&path);
        }
        self.scratch.path = path;
        slot.is_some()
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
        by_dim!(self.dim, K => {
            let window = fixed_box::<K>(window.corners());
            if !rect::intersects(fixed_box::<K>(&self.root_box), window) {
                true
            } else if self.heads[self.root].level == 0 {
                self.window_leaf::<K, F>(self.root, window, &mut visit)
            } else {
                self.window_internal::<K, F>(self.root, window, &mut visit)
            }
        })
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
        // Min-heap over (distance², seq) of pages and points.
        #[derive(PartialEq)]
        enum Item {
            Page(PageId),
            Point(PageId, usize),
        }
        #[derive(PartialEq)]
        struct Cand {
            d2: f64,
            seq: u64,
            item: Item,
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
        let box_dist2 = |b: &[f64]| -> f64 {
            let (lo, hi) = b.split_at(self.dim);
            query
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let d = if v < lo[i] {
                        lo[i] - v
                    } else if v > hi[i] {
                        v - hi[i]
                    } else {
                        0.0
                    };
                    d * d
                })
                .sum()
        };
        let point_dist2 =
            |p: &[f64]| -> f64 { p.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum() };

        let mut heap = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        heap.push(Cand { d2: box_dist2(&self.root_box), seq, item: Item::Page(self.root) });
        seq += 1;
        let mut out = Vec::with_capacity(k);
        while let Some(cand) = heap.pop() {
            match cand.item {
                Item::Page(page) => {
                    let PageHead { level, len, .. } = self.heads[page];
                    for s in 0..len {
                        let (d2, item) = if level == 0 {
                            (point_dist2(self.point(page, s)), Item::Point(page, s))
                        } else {
                            (box_dist2(self.slot_box(page, s)), Item::Page(self.child(page, s)))
                        };
                        heap.push(Cand { d2, seq, item });
                        seq += 1;
                    }
                }
                Item::Point(page, s) => {
                    out.push((self.point(page, s).to_vec(), self.ids[self.id_base(page) + s]));
                    if out.len() == k {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Collects all stored `(coords, id)` pairs in unspecified order.
    pub fn iter_all(&self) -> Vec<(Vec<f64>, u64)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let PageHead { level, len, .. } = self.heads[page];
            let ids = &self.ids[self.id_base(page)..][..len];
            if level == 0 {
                out.extend((0..len).map(|s| (self.point(page, s).to_vec(), ids[s])));
            } else {
                stack.extend(ids.iter().map(|&c| c as PageId));
            }
        }
        out
    }

    /// A read-only handle to the root node, for algorithms that steer
    /// their own traversal (e.g. best-first search in BBS).
    pub fn root(&self) -> NodeRef<'_> {
        NodeRef { tree: self, page: self.root, bbox: &self.root_box }
    }

    /// Structural statistics (length, height, node count).
    pub fn stats(&self) -> TreeStats {
        let mut nodes = 0usize;
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            nodes += 1;
            let PageHead { level, len, .. } = self.heads[page];
            if level > 0 {
                stack.extend(self.ids[self.id_base(page)..][..len].iter().map(|&c| c as PageId));
            }
        }
        TreeStats { len: self.len, height: self.heads[self.root].level as usize + 1, nodes }
    }

    /// Verifies every structural invariant, panicking with a description on
    /// the first violation. Intended for tests; O(n).
    ///
    /// `strict_fill` additionally enforces minimum node fill for non-root
    /// nodes. STR bulk loading legitimately produces one trailing underfull
    /// node per level, so pass `false` for bulk-loaded trees.
    pub fn check_invariants(&self, strict_fill: bool) {
        let mut freed = vec![false; self.heads.len()];
        for &page in self.free.iter().flatten() {
            assert!(!freed[page], "page {page} released twice");
            freed[page] = true;
        }
        let mut counted = 0usize;
        self.check_page(self.root, None, &self.root_box, strict_fill, &freed, &mut counted);
        assert_eq!(counted, self.len, "stored length {} != counted points {}", self.len, counted);
    }

    // ------------------------------------------------------------------
    // internals: the page layout
    // ------------------------------------------------------------------

    fn id_base(&self, page: PageId) -> usize {
        page * self.slots
    }

    fn val_base(&self, page: PageId) -> usize {
        self.heads[page].base
    }

    /// Values per slot: a point's coordinates or a child's box.
    fn width(&self, level: u32) -> usize {
        if level == 0 {
            self.dim
        } else {
            2 * self.dim
        }
    }

    /// Coordinates of the point in `slot` of leaf `page`.
    fn point(&self, page: PageId, slot: usize) -> &[f64] {
        &self.vals[self.val_base(page) + slot * self.dim..][..self.dim]
    }

    /// Box of the child in `slot` of internal `page`, `lo` then `hi`.
    fn slot_box(&self, page: PageId, slot: usize) -> &[f64] {
        &self.vals[self.val_base(page) + slot * 2 * self.dim..][..2 * self.dim]
    }

    fn slot_box_mut(&mut self, page: PageId, slot: usize) -> &mut [f64] {
        let start = self.val_base(page) + slot * 2 * self.dim;
        &mut self.vals[start..start + 2 * self.dim]
    }

    /// Page of the child in `slot` of internal `page`.
    fn child(&self, page: PageId, slot: usize) -> PageId {
        self.ids[self.id_base(page) + slot] as PageId
    }

    /// A page for a node at `level`: a released page of the same kind
    /// (leaf or internal), or a new one at the end of the arena.
    fn alloc(&mut self, level: u32) -> PageId {
        if let Some(page) = self.free[usize::from(level > 0)].pop() {
            let head = &mut self.heads[page];
            (head.level, head.len) = (level, 0);
            page
        } else {
            let base = self.vals.len();
            self.heads.push(PageHead { level, len: 0, base });
            self.ids.resize(self.ids.len() + self.slots, 0);
            self.vals.resize(base + self.slots * self.width(level), 0.0);
            self.heads.len() - 1
        }
    }

    fn release(&mut self, page: PageId) {
        self.free[usize::from(self.heads[page].level > 0)].push(page);
    }

    /// Appends a point to leaf `page`.
    fn push_point(&mut self, page: PageId, coords: &[f64], id: u64) {
        let slot = self.heads[page].len;
        self.heads[page].len += 1;
        let ib = self.id_base(page);
        self.ids[ib + slot] = id;
        let start = self.val_base(page) + slot * self.dim;
        self.vals[start..start + self.dim].copy_from_slice(coords);
    }

    /// Appends `child` to internal `page`, with the child's tight box.
    fn push_child(&mut self, page: PageId, child: PageId) {
        let slot = self.heads[page].len;
        self.heads[page].len += 1;
        let ib = self.id_base(page);
        self.ids[ib + slot] = child as u64;
        self.refresh_slot(page, slot);
    }

    /// Removes the entry in `slot` of `page`, moving the last entry into
    /// its place.
    fn swap_remove(&mut self, page: PageId, slot: usize) {
        let PageHead { level, len, .. } = self.heads[page];
        let last = len - 1;
        if slot != last {
            let ib = self.id_base(page);
            self.ids[ib + slot] = self.ids[ib + last];
            let (vb, w) = (self.val_base(page), self.width(level));
            self.vals.copy_within(vb + last * w..vb + len * w, vb + slot * w);
        }
        self.heads[page].len = last;
    }

    /// Folds the tight box of `page`'s entries into `out`, entry by entry
    /// in slot order.
    fn fold_page(&self, page: PageId, out: &mut [f64]) {
        by_dim!(self.dim, K => self.fold_page_in::<K>(page, out))
    }

    fn fold_page_in<const K: usize>(&self, page: PageId, out: &mut [f64]) {
        rect::clear(out);
        let PageHead { level, len, .. } = self.heads[page];
        for s in 0..len {
            if level == 0 {
                let p = fixed::<K>(self.point(page, s));
                rect::grow(out, p, p);
            } else {
                let (lo, hi) = self.slot_box(page, s).split_at(self.dim);
                rect::grow(out, fixed::<K>(lo), fixed::<K>(hi));
            }
        }
    }

    /// Recomputes the box in `slot` of `page` from the child's entries.
    fn refresh_slot(&mut self, page: PageId, slot: usize) {
        let mut b = std::mem::take(&mut self.scratch.fold);
        b.resize(2 * self.dim, 0.0);
        self.fold_page(self.child(page, slot), &mut b);
        self.slot_box_mut(page, slot).copy_from_slice(&b);
        self.scratch.fold = b;
    }

    /// Recomputes the root's box from its entries.
    fn refold_root(&mut self) {
        let mut b = std::mem::take(&mut self.root_box);
        self.fold_page(self.root, &mut b);
        self.root_box = b;
    }

    fn check_page(
        &self,
        page: PageId,
        expected_level: Option<u32>,
        bbox: &[f64],
        strict_fill: bool,
        freed: &[bool],
        counted: &mut usize,
    ) {
        assert!(!freed[page], "reachable page {page} is on the free list");
        let PageHead { level, len, .. } = self.heads[page];
        if let Some(lvl) = expected_level {
            assert_eq!(level, lvl, "page {page} at wrong level");
        }
        if page != self.root {
            assert!(len >= 1, "non-root page {page} is empty");
            if strict_fill {
                assert!(
                    len >= self.min_entries,
                    "non-root page {page} underfull: {len} < {}",
                    self.min_entries
                );
            }
        }
        assert!(len <= self.max_entries, "page {page} overfull: {len}");
        let mut tight = vec![0.0; 2 * self.dim];
        self.fold_page(page, &mut tight);
        if level == 0 {
            *counted += len;
            if len > 0 {
                assert_eq!(tight, bbox, "leaf {page} box not tight");
            }
        } else {
            assert!(len > 0, "internal page {page} childless");
            assert_eq!(tight, bbox, "internal page {page} box not tight");
            for s in 0..len {
                let child = self.child(page, s);
                self.check_page(
                    child,
                    Some(level - 1),
                    self.slot_box(page, s),
                    strict_fill,
                    freed,
                    counted,
                );
            }
        }
    }

    // --- window and find ------------------------------------------------

    /// The window visit below internal `page`: its children in slot
    /// order, each entered only when its box meets `window` (`lo` then
    /// `hi`).
    fn window_internal<const K: usize, F: FnMut(&[f64], u64) -> bool>(
        &self,
        page: PageId,
        window: &[f64],
        visit: &mut F,
    ) -> bool {
        let PageHead { level, len, .. } = self.heads[page];
        let ids = &self.ids[self.id_base(page)..][..len];
        let vals = &self.vals[self.val_base(page)..];
        let w = 2 * self.dim;
        for (s, &child) in ids.iter().enumerate() {
            let b = fixed_box::<K>(&vals[s * w..(s + 1) * w]);
            if rect::intersects(b, window) {
                // Leaves are scanned in place, without a call per leaf.
                let complete = if level == 1 {
                    self.window_leaf::<K, F>(child as PageId, window, visit)
                } else {
                    self.window_internal::<K, F>(child as PageId, window, visit)
                };
                if !complete {
                    return false;
                }
            }
        }
        true
    }

    /// The window visit of leaf `page`: its points in slot order.
    #[inline(always)]
    fn window_leaf<const K: usize, F: FnMut(&[f64], u64) -> bool>(
        &self,
        page: PageId,
        window: &[f64],
        visit: &mut F,
    ) -> bool {
        let ids = &self.ids[self.id_base(page)..][..self.heads[page].len];
        let vals = &self.vals[self.val_base(page)..];
        for (s, &id) in ids.iter().enumerate() {
            let p = fixed::<K>(&vals[s * self.dim..(s + 1) * self.dim]);
            if rect::contains(window, p) && !visit(p, id) {
                return false;
            }
        }
        true
    }

    /// Finds the leaf holding an entry with these coordinates and id,
    /// recording the path from `page` (in `slot` of its parent) to that
    /// leaf in `path`. Returns the entry's slot in the leaf: the first
    /// match in slot order, in the first leaf in depth-first order.
    fn find_path<const K: usize>(
        &self,
        page: PageId,
        slot: usize,
        coords: &[f64],
        id: u64,
        path: &mut Vec<(PageId, usize)>,
    ) -> Option<usize> {
        path.push((page, slot));
        let PageHead { level, len, .. } = self.heads[page];
        let ids = &self.ids[self.id_base(page)..][..len];
        if level == 0 {
            let found = (0..len).find(|&s| ids[s] == id && self.point(page, s) == coords);
            if found.is_some() {
                return found;
            }
        } else {
            for (s, &child) in ids.iter().enumerate() {
                if rect::contains(fixed_box::<K>(self.slot_box(page, s)), fixed::<K>(coords)) {
                    if let Some(found) = self.find_path::<K>(child as PageId, s, coords, id, path) {
                        return Some(found);
                    }
                }
            }
        }
        path.pop();
        None
    }

    // --- insertion -----------------------------------------------------

    fn insert_entry(&mut self, coords: &[f64], id: u64) {
        rect::grow(&mut self.root_box, coords, coords);
        if let Some(sibling) = self.insert_into(self.root, coords, id) {
            self.grow_root(sibling);
        }
    }

    /// Recursive insert into `page`, whose box already covers the point.
    /// Returns a freshly split-off sibling of `page` if it overflowed, to
    /// be installed by the caller.
    fn insert_into(&mut self, page: PageId, coords: &[f64], id: u64) -> Option<PageId> {
        if self.heads[page].level == 0 {
            self.push_point(page, coords, id);
        } else {
            // The subtree gains exactly this point, and a split below only
            // redistributes it, so the chosen child's box grows in place.
            let slot = self.choose_subtree(page, coords);
            rect::grow(self.slot_box_mut(page, slot), coords, coords);
            let sibling = self.insert_into(self.child(page, slot), coords, id)?;
            self.refresh_slot(page, slot);
            self.push_child(page, sibling);
        }
        (self.heads[page].len > self.max_entries).then(|| self.split(page))
    }

    /// Guttman's ChooseLeaf step: least enlargement, ties by least volume.
    /// Returns the chosen slot.
    fn choose_subtree(&self, page: PageId, point: &[f64]) -> usize {
        by_dim!(self.dim, K => self.choose_subtree_in::<K>(page, point))
    }

    fn choose_subtree_in<const K: usize>(&self, page: PageId, point: &[f64]) -> usize {
        let point = fixed::<K>(point);
        let mut best = 0;
        let mut best_enl = f64::INFINITY;
        let mut best_vol = f64::INFINITY;
        for s in 0..self.heads[page].len {
            let (lo, hi) = self.slot_box(page, s).split_at(self.dim);
            let (lo, hi) = (fixed::<K>(lo), fixed::<K>(hi));
            let vol = rect::volume(lo, hi);
            let enl = rect::union_volume(lo, hi, point, point) - vol;
            if enl < best_enl || (enl == best_enl && vol < best_vol) {
                best = s;
                best_enl = enl;
                best_vol = vol;
            }
        }
        best
    }

    fn grow_root(&mut self, sibling: PageId) {
        let old_root = self.root;
        let root = self.alloc(self.heads[old_root].level + 1);
        self.push_child(root, old_root);
        self.push_child(root, sibling);
        self.root = root;
        self.refold_root();
    }

    // --- quadratic split -----------------------------------------------

    /// Splits an overflowing `page`: the first group of the quadratic
    /// partition stays in `page`, the second moves to a new sibling page,
    /// each in group order. Returns the sibling.
    fn split(&mut self, page: PageId) -> PageId {
        let PageHead { level, len: n, .. } = self.heads[page];
        let (dim, w) = (self.dim, self.width(level));
        let (ib, vb) = (self.id_base(page), self.val_base(page));
        let s = &mut self.scratch;
        s.split_ids.clear();
        s.split_ids.extend_from_slice(&self.ids[ib..ib + n]);
        s.split_vals.clear();
        s.split_vals.extend_from_slice(&self.vals[vb..vb + n * w]);
        let vals = &s.split_vals;
        let corners = |i: usize| {
            let row = &vals[i * w..(i + 1) * w];
            if level == 0 {
                (row, row)
            } else {
                row.split_at(dim)
            }
        };
        by_dim!(dim, K => quadratic_partition::<K>(&mut s.part, n, self.min_entries, corners));
        self.fill_from_split(page, false);
        let sibling = self.alloc(level);
        self.fill_from_split(sibling, true);
        sibling
    }

    /// Writes one group of the split in progress into `page`.
    fn fill_from_split(&mut self, page: PageId, second: bool) {
        let w = self.width(self.heads[page].level);
        let (ib, vb) = (self.id_base(page), self.val_base(page));
        let s = &self.scratch;
        let group = if second { &s.part.group_b } else { &s.part.group_a };
        for (slot, &i) in group.iter().enumerate() {
            self.ids[ib + slot] = s.split_ids[i];
            self.vals[vb + slot * w..vb + (slot + 1) * w]
                .copy_from_slice(&s.split_vals[i * w..(i + 1) * w]);
        }
        self.heads[page].len = group.len();
    }

    // --- deletion --------------------------------------------------------

    /// After removing a point from the leaf at the end of `path`, restore
    /// invariants along the root path only (Guttman's CondenseTree):
    /// dissolve underfull nodes bottom-up, reinsert their orphaned points,
    /// and tighten ancestor boxes.
    fn condense_path(&mut self, path: &[(PageId, usize)]) {
        let mut orphan_ids = std::mem::take(&mut self.scratch.orphan_ids);
        let mut orphan_coords = std::mem::take(&mut self.scratch.orphan_coords);
        for i in (1..path.len()).rev() {
            let (page, slot) = path[i];
            let parent = path[i - 1].0;
            if self.heads[page].len < self.min_entries {
                self.swap_remove(parent, slot);
                self.orphan_subtree(page, &mut orphan_ids, &mut orphan_coords);
            } else {
                self.refresh_slot(parent, slot);
            }
        }
        self.refold_root();
        // Shrink a root that lost all but one child; its box is that
        // child's box.
        while self.heads[self.root].level > 0 && self.heads[self.root].len == 1 {
            let only = self.child(self.root, 0);
            self.release(self.root);
            self.root = only;
        }
        if self.heads[self.root].level > 0 && self.heads[self.root].len == 0 {
            // Everything was deleted: reset to an empty leaf root.
            self.release(self.root);
            self.root = self.alloc(0);
        }
        for (i, &id) in orphan_ids.iter().enumerate() {
            self.insert_entry(&orphan_coords[i * self.dim..(i + 1) * self.dim], id);
        }
        orphan_ids.clear();
        orphan_coords.clear();
        self.scratch.orphan_ids = orphan_ids;
        self.scratch.orphan_coords = orphan_coords;
    }

    /// Appends every point below `page` to the orphans, leaves' points in
    /// slot order and children in slot order, releasing each page after
    /// its children.
    fn orphan_subtree(&mut self, page: PageId, ids: &mut Vec<u64>, coords: &mut Vec<f64>) {
        let PageHead { level, len, .. } = self.heads[page];
        let ib = self.id_base(page);
        if level == 0 {
            let vb = self.val_base(page);
            ids.extend_from_slice(&self.ids[ib..ib + len]);
            coords.extend_from_slice(&self.vals[vb..vb + len * self.dim]);
        } else {
            for s in 0..len {
                let child = self.ids[ib + s] as PageId;
                self.orphan_subtree(child, ids, coords);
            }
        }
        self.release(page);
    }

    // --- STR bulk load ---------------------------------------------------

    /// Recursive tiling over the indices `order` into `points`: sort by
    /// `axis` (stably), cut into slabs sized so that the remaining axes can
    /// tile each slab, recurse; at the final axis, pack chunks of
    /// `max_entries` into leaves, appended to `leaves` in packing order.
    fn str_tile(
        &mut self,
        points: &[(&[f64], u64)],
        order: &mut [usize],
        axis: usize,
        leaves: &mut Vec<PageId>,
    ) {
        if order.is_empty() {
            return;
        }
        let cap = self.max_entries;
        order.sort_by(|&a, &b| {
            points[a].0[axis].partial_cmp(&points[b].0[axis]).expect("NaN coordinate in R-tree")
        });
        if axis + 1 == self.dim || order.len() <= cap {
            for chunk in order.chunks(cap) {
                let leaf = self.alloc(0);
                for &i in chunk {
                    self.push_point(leaf, points[i].0, points[i].1);
                }
                leaves.push(leaf);
            }
            return;
        }
        let n_leaves = order.len().div_ceil(cap);
        let remaining_axes = (self.dim - axis) as f64;
        let slabs = (n_leaves as f64).powf(1.0 / remaining_axes).ceil() as usize;
        let slab_size = order.len().div_ceil(slabs.max(1));
        for slab in order.chunks_mut(slab_size.max(1)) {
            self.str_tile(points, slab, axis + 1, leaves);
        }
    }

    /// Packs one level of pages into parents until a single root remains.
    fn pack_levels(&mut self, mut level_pages: Vec<PageId>, mut level: u32) -> PageId {
        while level_pages.len() > 1 {
            let mut parents = Vec::with_capacity(level_pages.len().div_ceil(self.max_entries));
            for chunk in level_pages.chunks(self.max_entries) {
                let parent = self.alloc(level);
                for &child in chunk {
                    self.push_child(parent, child);
                }
                parents.push(parent);
            }
            level_pages = parents;
            level += 1;
        }
        level_pages.pop().expect("pack_levels called with no pages")
    }
}

/// Guttman's quadratic split over `n` boxes, box `i` given by its corners
/// `corners(i)`: leaves the two index groups in `p.group_a` and
/// `p.group_b`. Both groups get at least `min_entries` members (assuming
/// `n > max_entries >= 2 * min_entries`).
///
/// Each box's volume is computed once, and a group's volume and its
/// enlargements only after that group's box grew; every value equals what
/// the per-use [`Rect::volume`]/[`Rect::enlargement`] calls produce, so the
/// split is the same.
fn quadratic_partition<'a, const K: usize>(
    p: &mut Partition,
    n: usize,
    min_entries: usize,
    corners: impl Fn(usize) -> (&'a [f64], &'a [f64]),
) {
    debug_assert!(n >= 2);
    let corners = |i| {
        let (lo, hi) = corners(i);
        (fixed::<K>(lo), fixed::<K>(hi))
    };
    p.volumes.clear();
    p.volumes.extend((0..n).map(|i| {
        let (lo, hi) = corners(i);
        rect::volume(lo, hi)
    }));

    // PickSeeds: the pair wasting the most area together.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        let (lo_i, hi_i) = corners(i);
        for j in (i + 1)..n {
            let (lo_j, hi_j) = corners(j);
            let waste = rect::union_volume(lo_i, hi_i, lo_j, hi_j) - p.volumes[i] - p.volumes[j];
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let Partition { group_a, group_b, remaining, box_a, box_b, enl_a, enl_b, .. } = p;
    group_a.clear();
    group_a.push(seed_a);
    group_b.clear();
    group_b.push(seed_b);
    for (b, seed) in [(&mut *box_a, seed_a), (&mut *box_b, seed_b)] {
        let (lo, hi) = corners(seed);
        b.clear();
        b.extend_from_slice(lo);
        b.extend_from_slice(hi);
    }
    let dim = box_a.len() / 2;
    remaining.clear();
    remaining.extend((0..n).filter(|&i| i != seed_a && i != seed_b));
    enl_a.resize(n, 0.0);
    enl_b.resize(n, 0.0);
    // Each group's volume and the enlargements of the remaining entries
    // against it; stale once the group's box has grown.
    let (mut va, mut vb, mut stale_a, mut stale_b) = (0.0, 0.0, true, true);
    let refresh = |b: &[f64], enl: &mut [f64], remaining: &[usize]| {
        let (b_lo, b_hi) = b.split_at(dim);
        let (b_lo, b_hi) = (fixed::<K>(b_lo), fixed::<K>(b_hi));
        let v = rect::volume(b_lo, b_hi);
        for &i in remaining {
            let (lo, hi) = corners(i);
            enl[i] = rect::union_volume(b_lo, b_hi, lo, hi) - v;
        }
        v
    };

    while !remaining.is_empty() {
        // If one group must absorb everything to reach minimum fill, do it.
        if group_a.len() + remaining.len() <= min_entries {
            group_a.append(remaining);
            break;
        }
        if group_b.len() + remaining.len() <= min_entries {
            group_b.append(remaining);
            break;
        }
        if stale_a {
            va = refresh(box_a, enl_a, remaining);
            stale_a = false;
        }
        if stale_b {
            vb = refresh(box_b, enl_b, remaining);
            stale_b = false;
        }
        // PickNext: entry with maximal preference difference.
        let (mut pick_pos, mut pick_diff) = (0, f64::NEG_INFINITY);
        for (pos, &i) in remaining.iter().enumerate() {
            let diff = (enl_a[i] - enl_b[i]).abs();
            if diff > pick_diff {
                pick_diff = diff;
                pick_pos = pos;
            }
        }
        let i = remaining.swap_remove(pick_pos);
        let (da, db) = (enl_a[i], enl_b[i]);
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
            rect::grow(box_a, lo, hi);
            stale_a = true;
        } else {
            group_b.push(i);
            rect::grow(box_b, lo, hi);
            stale_b = true;
        }
    }
}

/// A read-only view of one tree node, for caller-steered traversals.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    tree: &'a RTree,
    page: PageId,
    /// The node's box, held by its parent's page (or the tree, for the
    /// root).
    bbox: &'a [f64],
}

impl<'a> NodeRef<'a> {
    /// The node's minimum bounding box as its two corners `(lo, hi)`.
    /// Meaningless (inverted "empty" box) only for an empty root leaf.
    pub fn mbr(&self) -> (&'a [f64], &'a [f64]) {
        self.bbox.split_at(self.tree.dim)
    }

    /// Whether this is a leaf node.
    pub fn is_leaf(&self) -> bool {
        self.tree.heads[self.page].level == 0
    }

    /// Child nodes (empty for leaves).
    pub fn children(&self) -> impl Iterator<Item = NodeRef<'a>> + 'a {
        let (tree, page) = (self.tree, self.page);
        let n = if self.is_leaf() { 0 } else { tree.heads[page].len };
        (0..n).map(move |s| NodeRef {
            tree,
            page: tree.child(page, s),
            bbox: tree.slot_box(page, s),
        })
    }

    /// Points stored in this leaf (empty for internal nodes).
    pub fn points(&self) -> impl Iterator<Item = (&'a [f64], u64)> + 'a {
        let (tree, page) = (self.tree, self.page);
        let n = if self.is_leaf() { tree.heads[page].len } else { 0 };
        (0..n).map(move |s| (tree.point(page, s), tree.ids[tree.id_base(page) + s]))
    }
}
