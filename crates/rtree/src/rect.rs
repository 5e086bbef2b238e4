//! Axis-aligned minimum bounding rectangles of runtime dimensionality.
//!
//! A box is one `f64` slice of `2 × dim` values, the lower corner then the
//! upper corner. [`Rect`] owns one; the tree's pages store their children's
//! boxes the same way, so both share the box arithmetic below.

/// An axis-aligned box in `dim`-dimensional space.
///
/// `lo[i] <= hi[i]` holds on every axis for every rectangle produced by this
/// crate. A point is represented as a degenerate rectangle with `lo == hi`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    /// `lo` then `hi`.
    corners: Box<[f64]>,
}

impl Rect {
    /// Creates a rectangle from explicit corners.
    ///
    /// # Panics
    ///
    /// Panics if the corners have different lengths or if `lo[i] > hi[i]`
    /// on any axis.
    pub fn new(lo: &[f64], hi: &[f64]) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        assert!(lo.iter().zip(hi).all(|(l, h)| l <= h), "inverted rectangle: lo {lo:?} hi {hi:?}");
        Rect { corners: [lo, hi].concat().into() }
    }

    /// Creates the degenerate rectangle covering a single point.
    pub fn point(coords: &[f64]) -> Self {
        Rect { corners: [coords, coords].concat().into() }
    }

    /// Creates the rectangle `[0, corner]` anchored at the origin, the
    /// search region for "who dominates `corner`" in min-skyline space.
    pub fn from_origin(corner: &[f64]) -> Self {
        let mut r = Rect { corners: vec![0.0; 2 * corner.len()].into() };
        r.set_from_origin(corner);
        r
    }

    /// Creates the unbounded-above rectangle `[corner, +inf)`, the search
    /// region for "whom does `corner` dominate".
    pub fn to_infinity(corner: &[f64]) -> Self {
        let mut r = Rect { corners: vec![0.0; 2 * corner.len()].into() };
        r.set_to_infinity(corner);
        r
    }

    /// [`Rect::from_origin`] in place: re-targets `self` to `[0, corner]`
    /// without allocating, for callers that run one window query after
    /// another.
    ///
    /// # Panics
    ///
    /// Panics if `corner.len() != self.dim()`.
    pub fn set_from_origin(&mut self, corner: &[f64]) {
        let (lo, hi) = self.corners.split_at_mut(corner.len());
        lo.fill(0.0);
        hi.copy_from_slice(corner);
    }

    /// [`Rect::to_infinity`] in place: re-targets `self` to
    /// `[corner, +inf)` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `corner.len() != self.dim()`.
    pub fn set_to_infinity(&mut self, corner: &[f64]) {
        let (lo, hi) = self.corners.split_at_mut(corner.len());
        lo.copy_from_slice(corner);
        hi.fill(f64::INFINITY);
    }

    /// Dimensionality of the rectangle.
    #[inline]
    pub fn dim(&self) -> usize {
        self.corners.len() / 2
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.corners[..self.dim()]
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.corners[self.dim()..]
    }

    /// Both corners, `lo` then `hi`, as one slice.
    #[inline]
    pub(crate) fn corners(&self) -> &[f64] {
        &self.corners
    }

    /// Whether `self` and `other` share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        intersects(&self.corners, &other.corners)
    }

    /// Whether `self` fully contains `other`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        contains(&self.corners, other.lo()) && contains(&self.corners, other.hi())
    }

    /// Whether the point `p` lies inside `self` (boundaries inclusive).
    #[inline]
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), p.len());
        contains(&self.corners, p)
    }

    /// Grows `self` in place to cover `other`.
    pub fn grow(&mut self, other: &Rect) {
        debug_assert_eq!(self.dim(), other.dim());
        let (lo, hi) = other.corners.split_at(other.dim());
        grow(&mut self.corners, lo, hi);
    }

    /// Grows `self` in place to cover the point `p`.
    pub fn grow_point(&mut self, p: &[f64]) {
        debug_assert_eq!(self.dim(), p.len());
        grow(&mut self.corners, p, p);
    }

    /// Hyper-volume (product of side lengths). Degenerate boxes have zero
    /// volume; infinite boxes have infinite volume.
    #[inline]
    pub fn volume(&self) -> f64 {
        volume(self.lo(), self.hi())
    }

    /// Sum of side lengths. Used as a tie-break objective during splits:
    /// unlike volume it stays informative for degenerate (flat) boxes, which
    /// are common when indexing points.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.lo().iter().zip(self.hi()).map(|(lo, hi)| hi - lo).sum()
    }

    /// Volume of the smallest box covering both `self` and `other`.
    pub fn union_volume(&self, other: &Rect) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        union_volume(self.lo(), self.hi(), other.lo(), other.hi())
    }

    /// How much the volume of `self` would increase if grown to cover
    /// `other` (the classic Guttman insertion heuristic).
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union_volume(other) - self.volume()
    }
}

// Box arithmetic on bare slices, so that the R-tree can test and size the
// boxes in its pages without building a `Rect` for each. A box `b` is
// `lo` then `hi`; a point is its own two corners. `Rect` delegates here:
// one arithmetic, one evaluation order.

/// Resets box `b` to the empty box, the identity of [`grow`]: `lo = +inf`,
/// `hi = -inf` on every axis.
#[inline]
pub(crate) fn clear(b: &mut [f64]) {
    let (lo, hi) = b.split_at_mut(b.len() / 2);
    lo.fill(f64::INFINITY);
    hi.fill(f64::NEG_INFINITY);
}

/// Grows box `b` in place to cover the box with corners `lo`, `hi`.
#[inline]
pub(crate) fn grow(b: &mut [f64], lo: &[f64], hi: &[f64]) {
    let (b_lo, b_hi) = b.split_at_mut(lo.len());
    for i in 0..lo.len() {
        if lo[i] < b_lo[i] {
            b_lo[i] = lo[i];
        }
        if hi[i] > b_hi[i] {
            b_hi[i] = hi[i];
        }
    }
}

/// Whether boxes `a` and `b` share at least one point. Every axis is
/// tested, without branching: for the few axes here that is faster than
/// stopping at the first failing one, and it gives the same answer.
#[inline]
pub(crate) fn intersects(a: &[f64], b: &[f64]) -> bool {
    let k = a.len() / 2;
    let (a, b) = (&a[..2 * k], &b[..2 * k]);
    let mut ok = true;
    for i in 0..k {
        ok &= (a[i] <= b[k + i]) & (b[i] <= a[k + i]);
    }
    ok
}

/// Whether the point `p` lies inside box `b` (boundaries inclusive),
/// tested like [`intersects`].
#[inline]
pub(crate) fn contains(b: &[f64], p: &[f64]) -> bool {
    let k = p.len();
    let b = &b[..2 * k];
    let mut ok = true;
    for i in 0..k {
        ok &= (b[i] <= p[i]) & (p[i] <= b[k + i]);
    }
    ok
}

/// Hyper-volume of the box with corners `lo`, `hi`.
#[inline]
pub(crate) fn volume(lo: &[f64], hi: &[f64]) -> f64 {
    let hi = &hi[..lo.len()];
    let mut v = 1.0;
    for i in 0..lo.len() {
        v *= hi[i] - lo[i];
    }
    v
}

/// Volume of the smallest box covering boxes `a` and `b`.
#[inline]
pub(crate) fn union_volume(a_lo: &[f64], a_hi: &[f64], b_lo: &[f64], b_hi: &[f64]) -> f64 {
    let k = a_lo.len();
    let (a_hi, b_lo, b_hi) = (&a_hi[..k], &b_lo[..k], &b_hi[..k]);
    let mut v = 1.0;
    for i in 0..k {
        v *= a_hi[i].max(b_hi[i]) - a_lo[i].min(b_lo[i]);
    }
    v
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn point_rect_is_degenerate() {
        let r = Rect::point(&[1.0, 2.0, 3.0]);
        assert_eq!(r.lo(), r.hi());
        assert_eq!(r.volume(), 0.0);
        assert!(r.contains_point(&[1.0, 2.0, 3.0]));
        assert!(!r.contains_point(&[1.0, 2.0, 3.1]));
    }

    #[test]
    fn from_origin_covers_dominators() {
        let r = Rect::from_origin(&[2.0, 3.0]);
        assert!(r.contains_point(&[0.0, 0.0]));
        assert!(r.contains_point(&[2.0, 3.0]));
        assert!(!r.contains_point(&[2.1, 0.0]));
    }

    #[test]
    fn to_infinity_covers_dominated() {
        let r = Rect::to_infinity(&[2.0, 3.0]);
        assert!(r.contains_point(&[2.0, 3.0]));
        assert!(r.contains_point(&[100.0, 100.0]));
        assert!(!r.contains_point(&[1.9, 100.0]));
    }

    #[test]
    fn in_place_retargeting_matches_the_constructors() {
        let mut down = Rect::from_origin(&[9.0, 9.0]);
        let mut up = Rect::to_infinity(&[9.0, 9.0]);
        for corner in [[2.0, 3.0], [0.0, 7.5]] {
            down.set_from_origin(&corner);
            up.set_to_infinity(&corner);
            assert_eq!(down, Rect::from_origin(&corner));
            assert_eq!(up, Rect::to_infinity(&corner));
        }
    }

    #[test]
    fn intersects_is_symmetric_and_boundary_inclusive() {
        let a = Rect::new(&[0.0, 0.0], &[1.0, 1.0]);
        let b = Rect::new(&[1.0, 1.0], &[2.0, 2.0]);
        let c = Rect::new(&[1.1, 0.0], &[2.0, 0.5]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!c.intersects(&a));
    }

    #[test]
    fn grow_produces_cover() {
        let mut a = Rect::new(&[0.0, 5.0], &[1.0, 6.0]);
        let b = Rect::new(&[-1.0, 7.0], &[0.5, 8.0]);
        a.grow(&b);
        assert!(a.contains_rect(&b));
        assert_eq!(a.lo(), &[-1.0, 5.0]);
        assert_eq!(a.hi(), &[1.0, 8.0]);
    }

    #[test]
    fn empty_is_grow_identity() {
        let mut e = [0.0; 6];
        clear(&mut e);
        let r = Rect::new(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        grow(&mut e, r.lo(), r.hi());
        assert_eq!(e[..], *r.corners());
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = Rect::new(&[0.0, 0.0], &[10.0, 10.0]);
        let b = Rect::new(&[1.0, 1.0], &[2.0, 2.0]);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    #[should_panic(expected = "inverted rectangle")]
    fn inverted_rect_panics() {
        let _ = Rect::new(&[1.0], &[0.0]);
    }

    #[test]
    fn margin_handles_flat_boxes() {
        let flat = Rect::new(&[0.0, 1.0], &[5.0, 1.0]);
        assert_eq!(flat.volume(), 0.0);
        assert_eq!(flat.margin(), 5.0);
    }
}
