//! Axis-aligned minimum bounding rectangles of runtime dimensionality.

/// An axis-aligned box in `dim`-dimensional space.
///
/// `lo[i] <= hi[i]` holds on every axis for every rectangle produced by this
/// crate. A point is represented as a degenerate rectangle with `lo == hi`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
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
        Rect { lo: lo.into(), hi: hi.into() }
    }

    /// Creates the degenerate rectangle covering a single point.
    pub fn point(coords: &[f64]) -> Self {
        Rect { lo: coords.into(), hi: coords.into() }
    }

    /// Creates the rectangle `[0, corner]` anchored at the origin, the
    /// search region for "who dominates `corner`" in min-skyline space.
    pub fn from_origin(corner: &[f64]) -> Self {
        let lo = vec![0.0; corner.len()].into_boxed_slice();
        Rect { lo, hi: corner.into() }
    }

    /// Creates the unbounded-above rectangle `[corner, +inf)`, the search
    /// region for "whom does `corner` dominate".
    pub fn to_infinity(corner: &[f64]) -> Self {
        let hi = vec![f64::INFINITY; corner.len()].into_boxed_slice();
        Rect { lo: corner.into(), hi }
    }

    /// [`Rect::from_origin`] in place: re-targets `self` to `[0, corner]`
    /// without allocating, for callers that run one window query after
    /// another.
    ///
    /// # Panics
    ///
    /// Panics if `corner.len() != self.dim()`.
    pub fn set_from_origin(&mut self, corner: &[f64]) {
        self.lo.fill(0.0);
        self.hi.copy_from_slice(corner);
    }

    /// [`Rect::to_infinity`] in place: re-targets `self` to
    /// `[corner, +inf)` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `corner.len() != self.dim()`.
    pub fn set_to_infinity(&mut self, corner: &[f64]) {
        self.lo.copy_from_slice(corner);
        self.hi.fill(f64::INFINITY);
    }

    /// An "empty" rectangle that is the identity for [`Rect::grow`]:
    /// `lo = +inf`, `hi = -inf` on every axis. Not a valid stored rectangle.
    pub(crate) fn empty(dim: usize) -> Self {
        Rect {
            lo: vec![f64::INFINITY; dim].into_boxed_slice(),
            hi: vec![f64::NEG_INFINITY; dim].into_boxed_slice(),
        }
    }

    /// A zero-dimensional rectangle. It owns no heap storage, so it can
    /// stand in for a node's MBR while that MBR is recomputed in place.
    pub(crate) fn placeholder() -> Self {
        Rect { lo: Box::default(), hi: Box::default() }
    }

    /// A rectangle with these corners, unchecked: `lo == hi` for a point,
    /// or the corners of an existing rectangle.
    pub(crate) fn from_corners(lo: &[f64], hi: &[f64]) -> Self {
        Rect { lo: lo.into(), hi: hi.into() }
    }

    /// Resets `self` in place to [`Rect::empty`].
    pub(crate) fn clear(&mut self) {
        self.lo.fill(f64::INFINITY);
        self.hi.fill(f64::NEG_INFINITY);
    }

    /// Re-targets `self` in place to the degenerate box of point `p`.
    pub(crate) fn set_point(&mut self, p: &[f64]) {
        self.lo.copy_from_slice(p);
        self.hi.copy_from_slice(p);
    }

    /// Dimensionality of the rectangle.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Whether `self` and `other` share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(&*self.hi)
            .zip(other.lo.iter().zip(&*other.hi))
            .all(|((slo, shi), (olo, ohi))| slo <= ohi && olo <= shi)
    }

    /// Whether `self` fully contains `other`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(&*self.hi)
            .zip(other.lo.iter().zip(&*other.hi))
            .all(|((slo, shi), (olo, ohi))| slo <= olo && ohi <= shi)
    }

    /// Whether the point `p` lies inside `self` (boundaries inclusive).
    #[inline]
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), p.len());
        self.lo.iter().zip(&*self.hi).zip(p).all(|((lo, hi), v)| lo <= v && v <= hi)
    }

    /// Grows `self` in place to cover `other`.
    pub fn grow(&mut self, other: &Rect) {
        self.grow_corners(&other.lo, &other.hi);
    }

    /// Grows `self` in place to cover the box with corners `lo`, `hi`.
    pub(crate) fn grow_corners(&mut self, lo: &[f64], hi: &[f64]) {
        debug_assert_eq!(self.dim(), lo.len());
        for i in 0..self.lo.len() {
            if lo[i] < self.lo[i] {
                self.lo[i] = lo[i];
            }
            if hi[i] > self.hi[i] {
                self.hi[i] = hi[i];
            }
        }
    }

    /// Grows `self` in place to cover the point `p`.
    pub fn grow_point(&mut self, p: &[f64]) {
        debug_assert_eq!(self.dim(), p.len());
        for (i, &v) in p.iter().enumerate() {
            if v < self.lo[i] {
                self.lo[i] = v;
            }
            if v > self.hi[i] {
                self.hi[i] = v;
            }
        }
    }

    /// Hyper-volume (product of side lengths). Degenerate boxes have zero
    /// volume; infinite boxes have infinite volume.
    #[inline]
    pub fn volume(&self) -> f64 {
        volume(&self.lo, &self.hi)
    }

    /// Sum of side lengths. Used as a tie-break objective during splits:
    /// unlike volume it stays informative for degenerate (flat) boxes, which
    /// are common when indexing points.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.lo.iter().zip(&*self.hi).map(|(lo, hi)| hi - lo).sum()
    }

    /// Volume of the smallest box covering both `self` and `other`.
    pub fn union_volume(&self, other: &Rect) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        union_volume(&self.lo, &self.hi, &other.lo, &other.hi)
    }

    /// How much the volume of `self` would increase if grown to cover
    /// `other` (the classic Guttman insertion heuristic).
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union_volume(other) - self.volume()
    }

    /// L1 mindist from the origin: `Σ_i lo[i]`. This is the priority key
    /// of the BBS skyline algorithm (Papadias et al.): no point inside the
    /// box can have a smaller coordinate sum than the box's lower corner,
    /// and a point dominating the lower corner dominates every point in
    /// the box.
    #[inline]
    pub fn mindist_l1(&self) -> f64 {
        self.lo.iter().sum()
    }
}

// Box arithmetic on bare corners (`lo == hi` for a point), so that the
// R-tree can size points and MBRs without building a `Rect` for each.
// `Rect::volume` and `Rect::union_volume` delegate here: one arithmetic,
// one evaluation order.

/// Hyper-volume of the box with corners `lo`, `hi`.
#[inline]
pub(crate) fn volume(lo: &[f64], hi: &[f64]) -> f64 {
    lo.iter().zip(hi).map(|(lo, hi)| hi - lo).product()
}

/// Volume of the smallest box covering boxes `a` and `b`.
#[inline]
pub(crate) fn union_volume(a_lo: &[f64], a_hi: &[f64], b_lo: &[f64], b_hi: &[f64]) -> f64 {
    a_lo.iter()
        .zip(a_hi)
        .zip(b_lo.iter().zip(b_hi))
        .map(|((alo, ahi), (blo, bhi))| ahi.max(*bhi) - alo.min(*blo))
        .product()
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
        let mut e = Rect::empty(3);
        let r = Rect::new(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        e.grow(&r);
        assert_eq!(e, r);
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
