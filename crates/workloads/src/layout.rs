//! Memory layouts for the unstructured-grid sample (CaseC / CaseR).
//!
//! The unstructured-grid DSL stores, with every grid point, the global
//! addresses of its four neighbours; the two evaluation cases differ only in
//! where points live in memory:
//!
//! * **CaseC** — points are stored at their spatial position, so neighbour
//!   accesses are consecutive and mostly fall inside the same Block
//!   (Assumption III holds);
//! * **CaseR** — points are scattered by a pseudo-random permutation, so
//!   neighbour accesses have no spatial locality (Assumption III is violated)
//!   and most of them leave the Block — which is exactly the stress case the
//!   paper uses to expose Env-search and communication overheads.
//!
//! The paper builds CaseR by permuting the data array.  To avoid materialising
//! a permutation table for large domains, this crate uses a bijective affine
//! permutation `i ↦ (a·i + b) mod n` with `gcd(a, n) = 1`: deterministic,
//! seedable, O(1) memory, and with the same "neighbours are far away"
//! property.

use serde::Serialize;

/// A bijective affine permutation of `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AffinePermutation {
    n: u64,
    a: u64,
    b: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl AffinePermutation {
    /// Build a permutation of `0..n` from a seed.  The multiplier is derived
    /// from the seed and adjusted until it is coprime with `n`.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0);
        // For n <= 2 the only multiplier coprime with n and different from 0
        // is 1, so the scrambling degenerates to a (possibly shifted)
        // identity; the scan below assumes a coprime >= 2 exists, which holds
        // only for n >= 3 (n - 1 is always one).
        let a = if n <= 2 {
            1
        } else {
            let mut a = (0x9e37_79b9_7f4a_7c15u64 ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d)) % n;
            if a < 2 {
                a = 2;
            }
            while gcd(a, n) != 1 {
                a += 1;
                if a == n {
                    a = 2;
                }
            }
            a
        };
        let b = seed.wrapping_mul(0x9e37_79b9) % n;
        AffinePermutation { n, a, b }
    }

    /// Domain size.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the domain is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Apply the permutation.
    pub fn apply(&self, i: u64) -> u64 {
        debug_assert!(i < self.n);
        (self.a.wrapping_mul(i) % self.n + self.b) % self.n
    }

    /// The inverse permutation, `j ↦ (a⁻¹·j − a⁻¹·b) mod n`:
    /// `p.inverse().apply(p.apply(i)) == i`.
    pub fn inverse(&self) -> Self {
        let n = self.n as i128;
        // a⁻¹ mod n by extended Euclid: `t0·a ≡ r0 (mod n)` throughout, and
        // `r0` ends at gcd(a, n) = 1.  For n <= 2 the multiplier is 1.
        let a_inv = if self.n <= 2 {
            1
        } else {
            let (mut r0, mut r1) = (n, self.a as i128);
            let (mut t0, mut t1) = (0i128, 1i128);
            while r1 != 0 {
                let q = r0 / r1;
                (r0, r1) = (r1, r0 - q * r1);
                (t0, t1) = (t1, t0 - q * t1);
            }
            debug_assert_eq!(r0, 1, "the multiplier is coprime with n by construction");
            t0.rem_euclid(n)
        };
        let b = (-a_inv * self.b as i128).rem_euclid(n);
        AffinePermutation { n: self.n, a: a_inv as u64, b: b as u64 }
    }
}

/// The memory layout of the unstructured-grid sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GridLayout {
    /// Consecutive layout with spatial locality.
    CaseC,
    /// Scattered layout without spatial locality, derived from a seed.
    CaseR {
        /// Seed of the scattering permutation.
        seed: u64,
    },
}

/// Send `(x, y)` of a row-major `nx`-wide domain through a permutation of its
/// flat indices.
fn permute(perm: &AffinePermutation, x: i64, y: i64, nx: i64) -> (i64, i64) {
    let flat = perm.apply((y * nx + x) as u64) as i64;
    (flat % nx, flat / nx)
}

impl GridLayout {
    /// CaseR's scattering permutation of an `nx × ny` domain (`None` for
    /// CaseC, which scatters nothing).
    fn scatter(&self, nx: i64, ny: i64) -> Option<AffinePermutation> {
        match self {
            GridLayout::CaseC => None,
            GridLayout::CaseR { seed } => Some(AffinePermutation::new((nx * ny) as u64, *seed)),
        }
    }

    /// Map a logical grid point `(x, y)` of an `nx × ny` domain to the storage
    /// position where the unstructured-grid DSL places it.
    pub fn storage_of(&self, x: i64, y: i64, nx: i64, ny: i64) -> (i64, i64) {
        debug_assert!(x >= 0 && y >= 0 && x < nx && y < ny);
        self.scatter(nx, ny).map_or((x, y), |perm| permute(&perm, x, y, nx))
    }

    /// The logical grid point stored at `(sx, sy)`: the inverse of
    /// [`GridLayout::storage_of`].
    pub fn logical_of(&self, sx: i64, sy: i64, nx: i64, ny: i64) -> (i64, i64) {
        debug_assert!(sx >= 0 && sy >= 0 && sx < nx && sy < ny);
        self.scatter(nx, ny).map_or((sx, sy), |perm| permute(&perm.inverse(), sx, sy, nx))
    }

    /// The layout of one `nx × ny` domain with CaseR's permutation and its
    /// inverse built once — for a sweep over the domain, where building them
    /// per point (as the two calls above must) would dominate.
    pub fn resolve(&self, nx: i64, ny: i64) -> ResolvedLayout {
        ResolvedLayout { nx, scatter: self.scatter(nx, ny).map(|perm| (perm, perm.inverse())) }
    }

    /// Short name used in reports ("CaseC" / "CaseR").
    pub fn name(&self) -> &'static str {
        match self {
            GridLayout::CaseC => "CaseC",
            GridLayout::CaseR { .. } => "CaseR",
        }
    }
}

/// A [`GridLayout`] resolved against one domain size (see
/// [`GridLayout::resolve`]).
#[derive(Debug, Clone, Copy)]
pub struct ResolvedLayout {
    nx: i64,
    /// CaseR's permutation and its inverse.
    scatter: Option<(AffinePermutation, AffinePermutation)>,
}

impl ResolvedLayout {
    /// [`GridLayout::storage_of`] for this domain.
    pub fn storage_of(&self, x: i64, y: i64) -> (i64, i64) {
        self.scatter.as_ref().map_or((x, y), |(perm, _)| permute(perm, x, y, self.nx))
    }

    /// [`GridLayout::logical_of`] for this domain.
    pub fn logical_of(&self, sx: i64, sy: i64) -> (i64, i64) {
        self.scatter.as_ref().map_or((sx, sy), |(_, inverse)| permute(inverse, sx, sy, self.nx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn casec_is_identity() {
        assert_eq!(GridLayout::CaseC.storage_of(3, 5, 16, 16), (3, 5));
        assert_eq!(GridLayout::CaseC.name(), "CaseC");
    }

    #[test]
    fn caser_is_a_permutation_of_the_domain() {
        let layout = GridLayout::CaseR { seed: 42 };
        let (nx, ny) = (16i64, 12i64);
        let mut seen = HashSet::new();
        for y in 0..ny {
            for x in 0..nx {
                let (sx, sy) = layout.storage_of(x, y, nx, ny);
                assert!(sx >= 0 && sx < nx && sy >= 0 && sy < ny);
                assert!(seen.insert((sx, sy)), "storage position reused");
            }
        }
        assert_eq!(seen.len(), (nx * ny) as usize);
        assert_eq!(layout.name(), "CaseR");
    }

    #[test]
    fn caser_destroys_spatial_locality() {
        let layout = GridLayout::CaseR { seed: 7 };
        let (nx, ny) = (64i64, 64i64);
        // Measure the average storage distance of logically adjacent points;
        // it must be far larger than 1 (the CaseC distance).
        let mut total = 0.0;
        let mut count = 0.0;
        for y in 0..ny {
            for x in 0..nx - 1 {
                let (ax, ay) = layout.storage_of(x, y, nx, ny);
                let (bx, by) = layout.storage_of(x + 1, y, nx, ny);
                total += ((ax - bx).abs() + (ay - by).abs()) as f64;
                count += 1.0;
            }
        }
        assert!(total / count > 8.0, "neighbours are scattered far apart");
    }

    #[test]
    fn tiny_domains_terminate_and_are_bijective() {
        // Regression: n = 2 used to loop forever in `new` because the only
        // valid multiplier (1) was excluded by the "bump to 2" rule.
        for n in 1u64..=8 {
            for seed in 0..16 {
                let p = AffinePermutation::new(n, seed);
                let mut seen = vec![false; n as usize];
                for i in 0..n {
                    let j = p.apply(i);
                    assert!(j < n);
                    assert!(!seen[j as usize], "n={n} seed={seed} not a bijection");
                    seen[j as usize] = true;
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GridLayout::CaseR { seed: 1 }.storage_of(5, 5, 32, 32);
        let b = GridLayout::CaseR { seed: 2 }.storage_of(5, 5, 32, 32);
        assert_ne!(a, b);
    }

    proptest! {
        /// The affine map is a bijection for arbitrary sizes and seeds.
        #[test]
        fn affine_permutation_is_bijective(n in 1u64..3000, seed in 0u64..u64::MAX) {
            let p = AffinePermutation::new(n, seed);
            let mut seen = vec![false; n as usize];
            for i in 0..n {
                let j = p.apply(i);
                prop_assert!(j < n);
                prop_assert!(!seen[j as usize]);
                seen[j as usize] = true;
            }
        }

        /// `logical_of` undoes `storage_of` at every point of the domain,
        /// one-shot and resolved, down to the 1x1, 1x2 and 2x1 domains whose
        /// permutation degenerates.
        #[test]
        fn logical_of_inverts_storage_of(nx in 1i64..=40, ny in 1i64..=40, seed in any::<u64>()) {
            for (nx, ny) in [(nx, ny), (1, 1), (1, 2), (2, 1)] {
                for layout in [GridLayout::CaseC, GridLayout::CaseR { seed }] {
                    let resolved = layout.resolve(nx, ny);
                    for (x, y) in (0..ny).flat_map(|y| (0..nx).map(move |x| (x, y))) {
                        let (sx, sy) = layout.storage_of(x, y, nx, ny);
                        prop_assert_eq!(resolved.storage_of(x, y), (sx, sy));
                        prop_assert_eq!(layout.logical_of(sx, sy, nx, ny), (x, y));
                        prop_assert_eq!(resolved.logical_of(sx, sy), (x, y));
                    }
                }
            }
        }

        /// Inverting twice gives back the multiplier and the offset.
        #[test]
        fn inverse_of_inverse_is_the_permutation(n in 1u64..3000, seed in any::<u64>()) {
            let p = AffinePermutation::new(n, seed);
            prop_assert_eq!(p.inverse().inverse(), p);
            for i in 0..n {
                prop_assert_eq!(p.inverse().apply(p.apply(i)), i);
            }
        }

        /// storage_of stays inside the domain for both cases.
        #[test]
        fn storage_in_bounds(x in 0i64..64, y in 0i64..64, seed in 0u64..1000) {
            let (nx, ny) = (64, 64);
            for layout in [GridLayout::CaseC, GridLayout::CaseR { seed }] {
                let (sx, sy) = layout.storage_of(x, y, nx, ny);
                prop_assert!(sx >= 0 && sx < nx);
                prop_assert!(sy >= 0 && sy < ny);
            }
        }
    }
}
