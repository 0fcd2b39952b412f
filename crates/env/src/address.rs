//! Global and local addresses.
//!
//! Data can be accessed either with a **Global Address** — coordinates in the
//! whole computation domain — or a **Local Address** — coordinates relative
//! to the origin of a Block (the form Listing 1's `GetD(LA_t{{i, j-1}}, …)`
//! uses).  Addresses are three-dimensional; two-dimensional DSLs simply keep
//! `z = 0`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A position in the global computation domain (may be outside it, e.g. for
/// boundary accesses).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct GlobalAddress {
    /// X coordinate.
    pub x: i64,
    /// Y coordinate.
    pub y: i64,
    /// Z coordinate.
    pub z: i64,
}

impl GlobalAddress {
    /// 2-D constructor (`z = 0`).
    pub const fn new2d(x: i64, y: i64) -> Self {
        GlobalAddress { x, y, z: 0 }
    }

    /// 3-D constructor.
    pub const fn new3d(x: i64, y: i64, z: i64) -> Self {
        GlobalAddress { x, y, z }
    }

    /// Offset by a local displacement.
    pub fn offset(self, d: LocalAddress) -> Self {
        GlobalAddress { x: self.x + d.dx, y: self.y + d.dy, z: self.z + d.dz }
    }
}

impl Add<LocalAddress> for GlobalAddress {
    type Output = GlobalAddress;
    fn add(self, rhs: LocalAddress) -> Self::Output {
        self.offset(rhs)
    }
}

impl Sub<GlobalAddress> for GlobalAddress {
    type Output = LocalAddress;
    fn sub(self, rhs: GlobalAddress) -> Self::Output {
        LocalAddress { dx: self.x - rhs.x, dy: self.y - rhs.y, dz: self.z - rhs.z }
    }
}

impl fmt::Display for GlobalAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A displacement relative to a Block origin (the `LA_t` of Listing 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct LocalAddress {
    /// X displacement.
    pub dx: i64,
    /// Y displacement.
    pub dy: i64,
    /// Z displacement.
    pub dz: i64,
}

impl LocalAddress {
    /// 2-D constructor (`dz = 0`).
    pub const fn new2d(dx: i64, dy: i64) -> Self {
        LocalAddress { dx, dy, dz: 0 }
    }

    /// 3-D constructor.
    pub const fn new3d(dx: i64, dy: i64, dz: i64) -> Self {
        LocalAddress { dx, dy, dz }
    }
}

impl Add for LocalAddress {
    type Output = LocalAddress;
    fn add(self, rhs: LocalAddress) -> Self::Output {
        LocalAddress { dx: self.dx + rhs.dx, dy: self.dy + rhs.dy, dz: self.dz + rhs.dz }
    }
}

impl fmt::Display for LocalAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ({}, {}, {})", self.dx, self.dy, self.dz)
    }
}

/// The size of a Block in cells along each axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Extent {
    /// Cells along X.
    pub nx: usize,
    /// Cells along Y.
    pub ny: usize,
    /// Cells along Z.
    pub nz: usize,
}

impl Extent {
    /// 2-D extent (`nz = 1`).
    pub const fn new2d(nx: usize, ny: usize) -> Self {
        Extent { nx, ny, nz: 1 }
    }

    /// 3-D extent.
    pub const fn new3d(nx: usize, ny: usize, nz: usize) -> Self {
        Extent { nx, ny, nz }
    }

    /// Total number of cells.
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Does a displacement from the block origin fall inside this extent?
    pub fn contains_local(&self, d: LocalAddress) -> bool {
        d.dx >= 0
            && d.dy >= 0
            && d.dz >= 0
            && (d.dx as usize) < self.nx
            && (d.dy as usize) < self.ny
            && (d.dz as usize) < self.nz
    }

    /// Row-major linear index of a local displacement (caller must ensure it
    /// is contained).
    pub fn linear_index(&self, d: LocalAddress) -> usize {
        debug_assert!(self.contains_local(d), "local address {d} outside extent {self:?}");
        (d.dz as usize) * self.ny * self.nx + (d.dy as usize) * self.nx + d.dx as usize
    }

    /// Inverse of [`Extent::linear_index`].
    pub fn delinearize(&self, idx: usize) -> LocalAddress {
        let dz = idx / (self.nx * self.ny);
        let rem = idx % (self.nx * self.ny);
        let dy = rem / self.nx;
        let dx = rem % self.nx;
        LocalAddress { dx: dx as i64, dy: dy as i64, dz: dz as i64 }
    }

    /// The local address of the first cell of every X-row, in linear-index
    /// order: row `r` holds the cells `r * nx .. (r + 1) * nx`, so a loop over
    /// rows visits every cell in slab order with no division per cell.
    pub fn row_starts(&self) -> impl Iterator<Item = LocalAddress> {
        let ny = self.ny;
        (0..ny * self.nz).map(move |r| LocalAddress::new3d(0, (r % ny) as i64, (r / ny) as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn address_arithmetic() {
        let g = GlobalAddress::new2d(10, 20);
        let d = LocalAddress::new2d(-1, 2);
        assert_eq!(g + d, GlobalAddress::new2d(9, 22));
        assert_eq!(g.offset(d), GlobalAddress::new2d(9, 22));
        assert_eq!(GlobalAddress::new2d(9, 22) - g, d);
        assert_eq!(d + LocalAddress::new2d(1, -2), LocalAddress::default());
        assert_eq!(format!("{g}"), "(10, 20, 0)");
        assert_eq!(format!("{d}"), "Δ(-1, 2, 0)");
    }

    #[test]
    fn extent_containment() {
        let e = Extent::new2d(4, 3);
        assert!(e.contains_local(LocalAddress::new2d(0, 0)));
        assert!(e.contains_local(LocalAddress::new2d(3, 2)));
        assert!(!e.contains_local(LocalAddress::new2d(4, 0)));
        assert!(!e.contains_local(LocalAddress::new2d(0, 3)));
        assert!(!e.contains_local(LocalAddress::new2d(-1, 0)));
        assert!(!e.contains_local(LocalAddress::new3d(0, 0, 1)));
        assert_eq!(e.cells(), 12);
    }

    #[test]
    fn linear_index_row_major() {
        let e = Extent::new2d(4, 3);
        assert_eq!(e.linear_index(LocalAddress::new2d(0, 0)), 0);
        assert_eq!(e.linear_index(LocalAddress::new2d(1, 0)), 1);
        assert_eq!(e.linear_index(LocalAddress::new2d(0, 1)), 4);
        assert_eq!(e.linear_index(LocalAddress::new2d(3, 2)), 11);
        let e3 = Extent::new3d(2, 2, 2);
        assert_eq!(e3.linear_index(LocalAddress::new3d(1, 1, 1)), 7);
    }

    proptest! {
        /// delinearize is the inverse of linear_index for all cells of a block.
        #[test]
        fn linearize_roundtrip(nx in 1usize..20, ny in 1usize..20, nz in 1usize..6, sel in 0usize..2000) {
            let e = Extent::new3d(nx, ny, nz);
            let idx = sel % e.cells();
            let la = e.delinearize(idx);
            prop_assert!(e.contains_local(la));
            prop_assert_eq!(e.linear_index(la), idx);
        }

        /// Row `r` starts at the cell with linear index `r * nx`.
        #[test]
        fn row_starts_follow_the_linear_index(nx in 1usize..9, ny in 1usize..9, nz in 1usize..4) {
            let e = Extent::new3d(nx, ny, nz);
            let want: Vec<LocalAddress> = (0..ny * nz).map(|r| e.delinearize(r * nx)).collect();
            prop_assert_eq!(e.row_starts().collect::<Vec<_>>(), want);
        }

        /// (g + d) - g == d for arbitrary addresses.
        #[test]
        fn offset_then_diff(x in -1000i64..1000, y in -1000i64..1000, z in -10i64..10,
                            dx in -100i64..100, dy in -100i64..100, dz in -10i64..10) {
            let g = GlobalAddress::new3d(x, y, z);
            let d = LocalAddress::new3d(dx, dy, dz);
            prop_assert_eq!((g + d) - g, d);
        }
    }
}
