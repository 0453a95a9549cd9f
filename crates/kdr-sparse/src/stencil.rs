//! Laplacian stencil matrix generators.
//!
//! The paper's benchmarks use four finite-difference discretizations
//! of Poisson's equation on Cartesian meshes: 3-point (1-D), 5-point
//! (2-D), 7-point (3-D) and 27-point (3-D) Laplacians, with Dirichlet
//! boundary conditions (off-grid neighbors dropped, diagonal kept at
//! the full stencil weight so the matrix stays symmetric positive
//! definite). Matrices are generated at runtime — the paper uses no
//! external datasets — and this module can emit whole matrices,
//! per-row entries, or rectangular tiles (for the multi-operator
//! formulations of §6.2 and §6.3).

use crate::formats::csr::Csr;
use crate::matfree::StencilTile;
use crate::matrix::SparseMatrix;
use crate::scalar::{IndexInt, Scalar};
use crate::tile::{KernelChoice, KernelKind, StructureKey, TileKernel};
use crate::triples::Triples;

/// Which Laplacian stencil to generate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StencilKind {
    /// 3-point stencil for the 1-D Laplacian.
    Lap1D3,
    /// 5-point stencil for the 2-D Laplacian.
    Lap2D5,
    /// 7-point stencil for the 3-D Laplacian.
    Lap3D7,
    /// 27-point stencil for the 3-D Laplacian.
    Lap3D27,
}

impl StencilKind {
    /// Grid dimensionality.
    pub fn dims(&self) -> u32 {
        match self {
            StencilKind::Lap1D3 => 1,
            StencilKind::Lap2D5 => 2,
            StencilKind::Lap3D7 | StencilKind::Lap3D27 => 3,
        }
    }

    /// Points in the stencil (matrix row width in the interior).
    pub fn points(&self) -> u64 {
        match self {
            StencilKind::Lap1D3 => 3,
            StencilKind::Lap2D5 => 5,
            StencilKind::Lap3D7 => 7,
            StencilKind::Lap3D27 => 27,
        }
    }

    /// Stable single-byte wire code, used by the durable store.
    /// Codes are append-only: existing assignments never change.
    pub fn code(self) -> u8 {
        match self {
            StencilKind::Lap1D3 => 0,
            StencilKind::Lap2D5 => 1,
            StencilKind::Lap3D7 => 2,
            StencilKind::Lap3D27 => 3,
        }
    }

    /// Inverse of [`StencilKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => StencilKind::Lap1D3,
            1 => StencilKind::Lap2D5,
            2 => StencilKind::Lap3D7,
            3 => StencilKind::Lap3D27,
            _ => return None,
        })
    }
}

/// A stencil problem: a kind plus grid dimensions. Unused dimensions
/// must be 1.
#[derive(Clone, Copy, Debug)]
pub struct Stencil {
    /// Which stencil.
    pub kind: StencilKind,
    /// Grid extent in x.
    pub nx: u64,
    /// Grid extent in y (1 for 1-D stencils).
    pub ny: u64,
    /// Grid extent in z (1 below 3-D).
    pub nz: u64,
}

/// A stencil point's displacement `(dx, dy, dz)` and matrix value.
type WeightedPoint<T> = ((i64, i64, i64), T);

impl Stencil {
    /// A stencil problem over an `nx × ny × nz` grid; extents of
    /// unused dimensions must be 1.
    pub fn new(kind: StencilKind, nx: u64, ny: u64, nz: u64) -> Self {
        match kind.dims() {
            1 => assert!(
                nx >= 1 && ny == 1 && nz == 1,
                "1-D stencil needs ny = nz = 1"
            ),
            2 => assert!(nx >= 1 && ny >= 1 && nz == 1, "2-D stencil needs nz = 1"),
            _ => assert!(nx >= 1 && ny >= 1 && nz >= 1),
        }
        Stencil { kind, nx, ny, nz }
    }

    /// 1-D problem of size `n`.
    pub fn lap1d(n: u64) -> Self {
        Stencil::new(StencilKind::Lap1D3, n, 1, 1)
    }

    /// 2-D 5-point problem on an `nx × ny` grid.
    pub fn lap2d(nx: u64, ny: u64) -> Self {
        Stencil::new(StencilKind::Lap2D5, nx, ny, 1)
    }

    /// 3-D 7-point problem on an `nx × ny × nz` grid.
    pub fn lap3d7(nx: u64, ny: u64, nz: u64) -> Self {
        Stencil::new(StencilKind::Lap3D7, nx, ny, nz)
    }

    /// 3-D 27-point problem on an `nx × ny × nz` grid.
    pub fn lap3d27(nx: u64, ny: u64, nz: u64) -> Self {
        Stencil::new(StencilKind::Lap3D27, nx, ny, nz)
    }

    /// Number of unknowns (matrix dimension).
    pub fn unknowns(&self) -> u64 {
        self.nx * self.ny * self.nz
    }

    /// Exact stored-entry count, computed analytically (no
    /// materialization — used by the machine cost model at scales up
    /// to 2^32 unknowns).
    pub fn nnz(&self) -> u64 {
        // Count neighbor pairs per axis: a line of n points has n - 1
        // adjacent pairs, each contributing two off-diagonal entries.
        let pairs = |n: u64| n.saturating_sub(1);
        match self.kind {
            StencilKind::Lap1D3 => self.nx + 2 * pairs(self.nx),
            StencilKind::Lap2D5 => {
                let n = self.nx * self.ny;
                n + 2 * (pairs(self.nx) * self.ny + self.nx * pairs(self.ny))
            }
            StencilKind::Lap3D7 => {
                let n = self.unknowns();
                n + 2
                    * (pairs(self.nx) * self.ny * self.nz
                        + self.nx * pairs(self.ny) * self.nz
                        + self.nx * self.ny * pairs(self.nz))
            }
            StencilKind::Lap3D27 => {
                // Each point connects to every point in its 3×3×3
                // neighborhood clipped to the grid; total entries =
                // Σ_p Π_axis (neighbors along axis including self).
                // Closed form: Π over axes of (3n − 2) counts exactly
                // that sum, by independence of the axes.
                let f = |n: u64| 3 * n - 2;
                f(self.nx) * f(self.ny) * f(self.nz)
            }
        }
    }

    /// The stencil's points as coordinate displacements
    /// `(dx, dy, dz)`, in lexicographic order, plus the live count.
    /// Lexicographic displacement order is ascending *column* order
    /// for every surviving (in-grid) neighbor — columns compare
    /// lexicographically on the coordinate triple, and coordinates are
    /// monotone in the displacements — so every emitter below shares
    /// this one ordering and [`Stencil::point_weight`] for values.
    /// This is the single source of truth for the stencil geometry.
    fn points(&self) -> ([(i64, i64, i64); 27], usize) {
        let mut pts = [(0i64, 0i64, 0i64); 27];
        let mut k = 0;
        match self.kind {
            StencilKind::Lap1D3 | StencilKind::Lap2D5 | StencilKind::Lap3D7 => {
                let dims = self.kind.dims();
                // Lexicographic: -x, -y, -z, center, +z, +y, +x.
                pts[k] = (-1, 0, 0);
                k += 1;
                if dims >= 2 {
                    pts[k] = (0, -1, 0);
                    k += 1;
                }
                if dims >= 3 {
                    pts[k] = (0, 0, -1);
                    k += 1;
                }
                pts[k] = (0, 0, 0);
                k += 1;
                if dims >= 3 {
                    pts[k] = (0, 0, 1);
                    k += 1;
                }
                if dims >= 2 {
                    pts[k] = (0, 1, 0);
                    k += 1;
                }
                pts[k] = (1, 0, 0);
                k += 1;
            }
            StencilKind::Lap3D27 => {
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            pts[k] = (dx, dy, dz);
                            k += 1;
                        }
                    }
                }
            }
        }
        (pts, k)
    }

    /// Visit the entries of one matrix row as `(col, value)`, in
    /// ascending column order. This is the one boundary-clipping
    /// implementation every materialization shares — `tile_csr`,
    /// `slab_nnz`, [`StencilOperator`] extraction, and the matrix-free
    /// tile's band (asked of one row per stretch of a grid line whose
    /// rows clip alike, see [`crate::matfree`]) all route through here.
    pub fn row_entries<T: Scalar>(&self, row: u64, out: &mut Vec<(u64, T)>) {
        out.clear();
        let (pts, k) = self.weighted_points();
        self.visit_row(row, &pts[..k], |col, v| out.push((col, v)));
    }

    /// [`Stencil::points`], each with its [`Stencil::point_weight`].
    fn weighted_points<T: Scalar>(&self) -> ([WeightedPoint<T>; 27], usize) {
        let (pts, k) = self.points();
        (pts.map(|d| (d, self.point_weight(d))), k)
    }

    /// [`Stencil::row_entries`] handed to `f` one entry at a time, the
    /// stencil's weighted points given.
    fn visit_row<T: Scalar>(&self, row: u64, pts: &[WeightedPoint<T>], mut f: impl FnMut(u64, T)) {
        let (ny, nz) = (self.ny, self.nz);
        let x = (row / (ny * nz)) as i64;
        let y = ((row / nz) % ny) as i64;
        let z = (row % nz) as i64;
        for &((dx, dy, dz), weight) in pts {
            let (xx, yy, zz) = (x + dx, y + dy, z + dz);
            if xx < 0
                || xx >= self.nx as i64
                || yy < 0
                || yy >= ny as i64
                || zz < 0
                || zz >= nz as i64
            {
                continue;
            }
            let col = (xx as u64 * ny + yy as u64) * nz + zz as u64;
            f(col, weight);
        }
    }

    /// Materialize the whole matrix as a coordinate list.
    pub fn to_triples<T: Scalar>(&self) -> Triples<T> {
        let n = self.unknowns();
        let mut t = Triples::new(n, n);
        let mut row = Vec::new();
        for i in 0..n {
            self.row_entries::<T>(i, &mut row);
            for &(j, v) in &row {
                t.push(i, j, v);
            }
        }
        t
    }

    /// Materialize directly to CSR without the triples detour.
    pub fn to_csr<T: Scalar, I: IndexInt>(&self) -> Csr<T, I> {
        self.tile_csr(0, self.unknowns(), 0, self.unknowns())
    }

    /// Materialize the tile `[row_lo, row_hi) × [col_lo, col_hi)` as a
    /// CSR matrix in *local* coordinates. Tiles are how §6.2's
    /// multi-operator formulation and §6.3's 64×64 tile cut are
    /// constructed. The arrays are reserved at the slab's entry count
    /// (exact for a full-width tile) and each row is written straight
    /// into them.
    pub fn tile_csr<T: Scalar, I: IndexInt>(
        &self,
        row_lo: u64,
        row_hi: u64,
        col_lo: u64,
        col_hi: u64,
    ) -> Csr<T, I> {
        assert!(row_lo <= row_hi && row_hi <= self.unknowns());
        assert!(col_lo <= col_hi && col_hi <= self.unknowns());
        let mut rowptr = Vec::with_capacity((row_hi - row_lo) as usize + 1);
        rowptr.push(0u64);
        let entries = self.slab_nnz(row_lo, row_hi) as usize;
        let mut colidx = Vec::with_capacity(entries);
        let mut values = Vec::with_capacity(entries);
        let (pts, k) = self.weighted_points();
        let pts = &pts[..k];
        // A row off every face the stencil reaches, whose band lies in
        // the column range, holds every point, in the points' order:
        // its columns are the row plus each point's linear offset.
        let (ny, nz) = (self.ny as i64, self.nz as i64);
        let offsets: Vec<i64> = pts
            .iter()
            .map(|&((dx, dy, dz), _)| (dx * ny + dy) * nz + dz)
            .collect();
        let weights: Vec<T> = pts.iter().map(|&(_, w)| w).collect();
        let first = *offsets.iter().min().expect("a stencil has points");
        let last = *offsets.iter().max().expect("a stencil has points");
        let dims = self.kind.dims();
        let clear = |c: u64, n: u64, axis| axis >= dims || (c > 0 && c + 1 < n);
        for i in row_lo..row_hi {
            let (x, y, z) = (i / (self.ny * self.nz), i / self.nz % self.ny, i % self.nz);
            let whole = clear(x, self.nx, 0)
                && clear(y, self.ny, 1)
                && clear(z, self.nz, 2)
                && i.wrapping_add_signed(first) >= col_lo
                && i.wrapping_add_signed(last) < col_hi;
            if whole {
                let cols = offsets.iter().map(|&o| i.wrapping_add_signed(o) - col_lo);
                colidx.extend(cols.map(I::from_u64));
                values.extend_from_slice(&weights);
            } else {
                self.visit_row(i, pts, |j, v| {
                    if (col_lo..col_hi).contains(&j) {
                        colidx.push(I::from_u64(j - col_lo));
                        values.push(v);
                    }
                });
            }
            rowptr.push(colidx.len() as u64);
        }
        Csr::from_raw(rowptr, colidx, values, col_hi - col_lo)
    }

    /// The stencil's diagonal offset table: one entry per stencil
    /// point as `(linear_offset, (dx, dy, dz))`, sorted ascending by
    /// linear offset. Because the grid is linearized row-major
    /// (x-major, z-fastest), ascending linear offset is exactly
    /// ascending column order for an interior row — the same order
    /// [`Stencil::row_entries`] emits — so the matrix-free
    /// [`StencilOperator`] kernel space, which is laid out by this
    /// table, shares one accumulation order with the assembled CSR
    /// reference. On a grid with an axis of extent 1 or 2 several
    /// points can share one linear offset while at most one of them is
    /// in-grid for any row; a consumer that needs the entries of a
    /// *row* (as [`crate::matfree::StencilTile`] does) asks
    /// [`Stencil::row_entries`], not this table.
    pub fn offset_table(&self) -> Vec<(i64, (i64, i64, i64))> {
        let (ny, nz) = (self.ny, self.nz);
        let (pts, k) = self.points();
        let mut pairs: Vec<(i64, (i64, i64, i64))> = pts[..k]
            .iter()
            .map(|&(dx, dy, dz)| (dx * (ny * nz) as i64 + dy * nz as i64 + dz, (dx, dy, dz)))
            .collect();
        pairs.sort_unstable_by_key(|&(o, _)| o);
        pairs
    }

    /// The matrix value carried by displacement `(dx, dy, dz)`:
    /// the Dirichlet diagonal weight at the center, `-1` off it.
    pub fn point_weight<T: Scalar>(&self, d: (i64, i64, i64)) -> T {
        if d == (0, 0, 0) {
            match self.kind {
                StencilKind::Lap3D27 => T::from_f64(26.0),
                k => T::from_f64(2.0 * k.dims() as f64),
            }
        } else {
            T::from_f64(-1.0)
        }
    }

    /// Exact entry count of a row-slab tile `[row_lo, row_hi) × D`
    /// without materialization (cost model helper).
    pub fn slab_nnz(&self, row_lo: u64, row_hi: u64) -> u64 {
        // Exact per-row counting is cheap enough for the slab counts
        // the simulator needs (the slab count is O(rows), but only
        // row *widths* are required, which depend on the boundary
        // pattern; use the analytic whole-grid value scaled for the
        // interior plus exact edges for small slabs).
        let mut nnz = 0u64;
        let mut row = Vec::new();
        // Row width depends only on the (x, y, z) boundary pattern;
        // for large slabs, sample distinct x-layers instead of every
        // row. An x-layer of a row-major grid has constant width
        // profile, so per-layer totals repeat for interior layers.
        let layer = self.ny * self.nz;
        if layer == 0 || row_hi <= row_lo {
            return 0;
        }
        let full_layers_lo = row_lo.div_ceil(layer);
        let full_layers_hi = row_hi / layer;
        // Partial head.
        let head_end = (full_layers_lo * layer).min(row_hi);
        for i in row_lo..head_end {
            self.row_entries::<f64>(i, &mut row);
            nnz += row.len() as u64;
        }
        if full_layers_hi > full_layers_lo {
            // One boundary layer (x = 0 or x = nx-1) differs from the
            // interior; compute each distinct layer total once.
            let mut layer_total = |x: u64| -> u64 {
                let mut s = 0;
                for p in 0..layer {
                    self.row_entries::<f64>(x * layer + p, &mut row);
                    s += row.len() as u64;
                }
                s
            };
            let mut cache: Vec<(u64, u64)> = Vec::new();
            for x in full_layers_lo..full_layers_hi {
                // Layer class: 0 (x = 0), 1 (interior), 2 (x = nx-1).
                let class = if x == 0 {
                    0
                } else if x + 1 == self.nx {
                    2
                } else {
                    1
                };
                if let Some(&(_, v)) = cache.iter().find(|&&(c, _)| c == class) {
                    nnz += v;
                } else {
                    let v = layer_total(x);
                    cache.push((class, v));
                    nnz += v;
                }
            }
        }
        // Partial tail. Starting no earlier than the head's end keeps
        // a slab that lives entirely inside one layer (head already
        // counted it) from being counted twice.
        for i in (full_layers_hi * layer).max(head_end)..row_hi {
            self.row_entries::<f64>(i, &mut row);
            nnz += row.len() as u64;
        }
        nnz
    }
}

/// A matrix-free stencil operator: implements [`SparseMatrix`] with
/// *no stored data at all*.
///
/// Kernel space: `K = K0 × D` in DIA layout, where `K0` indexes the
/// stencil's diagonal offsets — both relations are implicit
/// (`col : (k0, i) ↦ i`, `row : (k0, i) ↦ i − offset(k0)`), and entry
/// values are recomputed from the stencil geometry on every access.
/// This is simultaneously:
///
/// * a demonstration of the paper's P2 — a user-defined, matrix-free
///   format plugs into all co-partitioning machinery because it can
///   state its row/column relations; and
/// * the scale-proof representation the simulation backend uses to
///   partition systems of up to 2³² unknowns, where run-level
///   interval arithmetic on the implicit relations replaces any
///   per-entry work; and
/// * a matrix-free operator in execution too: each tile lowers from
///   the geometry to a [`StencilTile`] ([`SparseMatrix::lower_tile`]),
///   so an execution backend stores none of its values.
pub struct StencilOperator<T> {
    stencil: Stencil,
    /// Diagonal offsets in the linearized index space, ascending.
    offsets: Vec<i64>,
    /// Per-offset grid displacement `(dx, dy, dz)`.
    displacements: Vec<(i64, i64, i64)>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Scalar> StencilOperator<T> {
    /// A matrix-free operator for `stencil`.
    pub fn new(stencil: Stencil) -> Self {
        let pairs = stencil.offset_table();
        StencilOperator {
            stencil,
            offsets: pairs.iter().map(|&(o, _)| o).collect(),
            displacements: pairs.iter().map(|&(_, d)| d).collect(),
            _marker: std::marker::PhantomData,
        }
    }

    /// The underlying stencil description.
    pub fn stencil(&self) -> &Stencil {
        &self.stencil
    }

    /// Number of stored diagonals (`|K0|`).
    pub fn num_diagonals(&self) -> u64 {
        self.offsets.len() as u64
    }

    fn n(&self) -> u64 {
        self.stencil.unknowns()
    }

    /// Value at column `i` of diagonal `k0` (zero where the grid
    /// neighbor relationship does not hold).
    fn value_at(&self, k0: usize, i: u64) -> T {
        let (ny, nz) = (self.stencil.ny, self.stencil.nz);
        let off = self.offsets[k0];
        let row = i as i64 - off;
        if row < 0 || row as u64 >= self.n() {
            return T::ZERO;
        }
        let (dx, dy, dz) = self.displacements[k0];
        // The entry exists iff column = row + displacement in grid
        // coordinates (linear offsets can wrap across grid edges).
        let r = row as u64;
        let rx = (r / (ny * nz)) as i64;
        let ry = ((r / nz) % ny) as i64;
        let rz = (r % nz) as i64;
        let (cx, cy, cz) = (rx + dx, ry + dy, rz + dz);
        let in_grid = cx >= 0
            && (cx as u64) < self.stencil.nx
            && cy >= 0
            && (cy as u64) < ny
            && cz >= 0
            && (cz as u64) < nz;
        if !in_grid {
            return T::ZERO;
        }
        debug_assert_eq!((cx as u64 * ny + cy as u64) * nz + cz as u64, i);
        self.stencil.point_weight((dx, dy, dz))
    }
}

impl<T: Scalar> SparseMatrix<T> for StencilOperator<T> {
    fn kernel_space(&self) -> kdr_index::IndexSpace {
        kdr_index::IndexSpace::flat(self.num_diagonals() * self.n())
    }

    fn domain_space(&self) -> kdr_index::IndexSpace {
        kdr_index::IndexSpace::flat(self.n())
    }

    fn range_space(&self) -> kdr_index::IndexSpace {
        kdr_index::IndexSpace::flat(self.n())
    }

    fn col_relation(&self) -> Box<dyn kdr_index::Relation + '_> {
        Box::new(kdr_index::ProjectionRelation::new(
            self.num_diagonals(),
            self.n(),
            kdr_index::ProjectionAxis::Inner,
        ))
    }

    fn row_relation(&self) -> Box<dyn kdr_index::Relation + '_> {
        Box::new(kdr_index::DiagonalRelation::new(
            self.offsets.clone(),
            self.n(),
            self.n(),
        ))
    }

    /// Under `Auto` or `Force(Stencil)` a tile is its rows' band of
    /// constants, built from the geometry ([`StencilTile::new`]): no
    /// entry is enumerated or stored. A forced assembled kind is a
    /// request for stored values (`Force(Csr)` is the exact-bits
    /// override), so it answers `None` and registration enumerates the
    /// operator.
    fn lower_tile(
        &self,
        rows: &kdr_index::IntervalSet,
        choice: KernelChoice,
    ) -> Option<(TileKernel<T>, StructureKey)> {
        if matches!(choice, KernelChoice::Force(k) if k != KernelKind::Stencil) {
            return None;
        }
        let runs = rows.runs().iter().map(|r| (r.lo, r.hi)).collect();
        let tile = StencilTile::new(self.stencil, runs);
        let kind = self.stencil.kind;
        let key =
            StructureKey::for_stencil(kind.code(), kind.points() as usize, rows.cardinality());
        let kernel = match tile.nnz() {
            0 => TileKernel::Empty,
            _ => TileKernel::Stencil(tile),
        };
        Some((kernel, key))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        let n = self.n();
        for k0 in 0..self.offsets.len() {
            let off = self.offsets[k0];
            for i in 0..n {
                let row = i as i64 - off;
                if row < 0 || row as u64 >= n {
                    continue;
                }
                let v = self.value_at(k0, i);
                if v != T::ZERO {
                    f(k0 as u64 * n + i, row as u64, i, v);
                }
            }
        }
    }
}

/// A virtual banded operator: a handful of diagonals, each with one
/// constant weight, and *no stored data*.
///
/// Like [`StencilOperator`], this exists for two reasons: it is a
/// second user-defined format living entirely outside the library's
/// format set (P2), and it represents boundary-coupling blocks of
/// multi-operator systems at simulation scale (the `A_{12}`/`A_{21}`
/// blocks of §6.2 are single off-diagonals of width `ny`). Kernel
/// space `K = K0 × D` in DIA layout; relations implicit; entries
/// computed on access.
pub struct VirtualBanded<T> {
    offsets: Vec<i64>,
    weights: Vec<T>,
    rows: u64,
    cols: u64,
}

impl<T: Scalar> VirtualBanded<T> {
    /// `offsets[k]` is the local diagonal (`col − row`) carrying
    /// constant `weights[k]`; `rows × cols` is the block shape.
    pub fn new(offsets: Vec<i64>, weights: Vec<T>, rows: u64, cols: u64) -> Self {
        assert_eq!(offsets.len(), weights.len());
        assert!(!offsets.is_empty());
        VirtualBanded {
            offsets,
            weights,
            rows,
            cols,
        }
    }

    /// The boundary-coupling block `D_src -> R_dst` of a 5-point
    /// stencil grid split into an upper half (rows `0..h`) and lower
    /// half (`h..2h`), where `ny` is the grid width. With
    /// `upper_to_lower` the block is `A_{21}` (reads the upper half,
    /// writes the lower), whose single local diagonal is `h − ny`;
    /// otherwise `A_{12}` with diagonal `ny − h`.
    pub fn coupling_5pt(h: u64, ny: u64, upper_to_lower: bool) -> Self {
        let off = if upper_to_lower {
            h as i64 - ny as i64
        } else {
            ny as i64 - h as i64
        };
        VirtualBanded::new(vec![off], vec![T::from_f64(-1.0)], h, h)
    }

    fn valid_range(&self, k0: usize) -> (u64, u64) {
        let off = self.offsets[k0];
        // row = i - off in [0, rows): i in [off, rows + off) ∩ [0, cols).
        let lo = off.max(0) as u64;
        let hi = (self.rows as i64 + off).clamp(0, self.cols as i64) as u64;
        (lo.min(self.cols), hi.max(lo).min(self.cols))
    }
}

impl<T: Scalar> SparseMatrix<T> for VirtualBanded<T> {
    fn kernel_space(&self) -> kdr_index::IndexSpace {
        kdr_index::IndexSpace::flat(self.offsets.len() as u64 * self.cols)
    }

    fn domain_space(&self) -> kdr_index::IndexSpace {
        kdr_index::IndexSpace::flat(self.cols)
    }

    fn range_space(&self) -> kdr_index::IndexSpace {
        kdr_index::IndexSpace::flat(self.rows)
    }

    fn col_relation(&self) -> Box<dyn kdr_index::Relation + '_> {
        Box::new(kdr_index::ProjectionRelation::new(
            self.offsets.len() as u64,
            self.cols,
            kdr_index::ProjectionAxis::Inner,
        ))
    }

    fn row_relation(&self) -> Box<dyn kdr_index::Relation + '_> {
        Box::new(kdr_index::DiagonalRelation::new(
            self.offsets.clone(),
            self.cols,
            self.rows,
        ))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for k0 in 0..self.offsets.len() {
            let off = self.offsets[k0];
            let (lo, hi) = self.valid_range(k0);
            for i in lo..hi {
                f(
                    k0 as u64 * self.cols + i,
                    (i as i64 - off) as u64,
                    i,
                    self.weights[k0],
                );
            }
        }
    }
}

/// The paper's fixed right-hand side: entries in `[0, 1]`, generated
/// deterministically from a seed.
pub fn rhs_vector<T: Scalar>(n: u64, seed: u64) -> Vec<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            T::from_f64((state % (1 << 20)) as f64 / (1u64 << 20) as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SparseMatrix;

    #[test]
    fn tile_csr_writes_the_rows_row_entries_lists() {
        let stencils = [
            Stencil::lap1d(7),
            Stencil::lap2d(5, 4),
            Stencil::lap3d7(4, 3, 5),
            Stencil::lap3d27(5, 4, 3),
            Stencil::lap3d27(2, 5, 4),
        ];
        for s in stencils {
            let n = s.unknowns();
            // Every column range that starts at 0 or ends at `n`, so some
            // window edge falls just inside and just outside every band.
            let windows = (0..n).map(|c| (c, n)).chain((1..n).map(|c| (0, c)));
            let tiles = [(0, n), (1, n - 1), (n / 3, 2 * n / 3)]
                .into_iter()
                .flat_map(|rows| windows.clone().map(move |cols| (rows, cols)));
            for ((rl, rh), (cl, ch)) in tiles {
                let tile: Csr<f64> = s.tile_csr(rl, rh, cl, ch);
                let (mut rowptr, mut cols, mut vals) = (vec![0u64], Vec::new(), Vec::new());
                let mut row = Vec::new();
                for i in rl..rh {
                    s.row_entries::<f64>(i, &mut row);
                    for &(j, v) in row.iter().filter(|(j, _)| (cl..ch).contains(j)) {
                        cols.push(j - cl);
                        vals.push(v.to_bits());
                    }
                    rowptr.push(cols.len() as u64);
                }
                let what = format!("{s:?} rows {rl}..{rh} cols {cl}..{ch}");
                assert_eq!(tile.rowptr(), rowptr, "{what}");
                assert_eq!(tile.colidx(), cols, "{what}");
                let bits: Vec<u64> = tile.values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, vals, "{what}");
            }
        }
    }

    #[test]
    fn virtual_banded_coupling_blocks_reassemble_5pt() {
        // Split a 6x4 grid (rows 0..12 | 12..24) into two half-grid
        // Laplacians plus two coupling blocks; their sum must equal
        // the full 5-point operator.
        let (nx, ny) = (6u64, 4u64);
        let s = Stencil::lap2d(nx, ny);
        let n = s.unknowns();
        let h = n / 2;
        let whole: Csr<f64> = s.to_csr();
        let a11: Csr<f64> = s.tile_csr(0, h, 0, h);
        let a22: Csr<f64> = s.tile_csr(h, n, h, n);
        let a21 = VirtualBanded::<f64>::coupling_5pt(h, ny, true);
        let a12 = VirtualBanded::<f64>::coupling_5pt(h, ny, false);
        let x = rhs_vector::<f64>(n, 77);
        let mut expect = vec![0.0; n as usize];
        whole.spmv(&x, &mut expect);
        let mut got = vec![0.0; n as usize];
        {
            let (lo, hi) = got.split_at_mut(h as usize);
            a11.spmv(&x[..h as usize], lo);
            a22.spmv(&x[h as usize..], hi);
            a12.spmv_add(&x[h as usize..], lo);
            a21.spmv_add(&x[..h as usize], hi);
        }
        for i in 0..n as usize {
            assert!((got[i] - expect[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn virtual_banded_relations_consistent() {
        let b = VirtualBanded::<f64>::new(vec![-2, 1], vec![0.5, -0.5], 6, 5);
        let row = b.row_relation();
        let col = b.col_relation();
        b.for_each_entry(&mut |k, i, j, v| {
            let mut r = Vec::new();
            row.targets_of(k, &mut r);
            assert_eq!(r, vec![i]);
            let mut c = Vec::new();
            col.targets_of(k, &mut c);
            assert_eq!(c, vec![j]);
            assert!(v == 0.5 || v == -0.5);
        });
        // Adjoint consistency.
        let t = b.to_triples();
        let x = rhs_vector::<f64>(6, 4);
        let mut y1 = vec![0.0; 5];
        b.spmv_transpose(&x, &mut y1);
        let y2 = t.dense_apply_transpose(&x);
        for i in 0..5 {
            assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn stencil_operator_matches_csr() {
        for s in [
            Stencil::lap1d(9),
            Stencil::lap2d(4, 5),
            Stencil::lap3d7(3, 3, 4),
            Stencil::lap3d27(3, 3, 3),
        ] {
            let op = StencilOperator::<f64>::new(s);
            let c: Csr<f64> = s.to_csr();
            let n = s.unknowns() as usize;
            let x = rhs_vector::<f64>(n as u64, 11);
            let mut y1 = vec![0.0; n];
            let mut y2 = vec![0.0; n];
            op.spmv(&x, &mut y1);
            c.spmv(&x, &mut y2);
            for i in 0..n {
                assert!((y1[i] - y2[i]).abs() < 1e-12, "kind {:?} row {i}", s.kind);
            }
            let mut z1 = vec![0.0; n];
            let mut z2 = vec![0.0; n];
            op.spmv_transpose(&x, &mut z1);
            c.spmv_transpose(&x, &mut z2);
            for i in 0..n {
                assert!((z1[i] - z2[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn stencil_operator_entries_match_triples() {
        let s = Stencil::lap2d(4, 4);
        let op = StencilOperator::<f64>::new(s);
        let mut got: Vec<(u64, u64, f64)> = Vec::new();
        op.for_each_entry(&mut |_, i, j, v| got.push((i, j, v)));
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let t = s.to_triples::<f64>().canonicalize();
        let expect: Vec<(u64, u64, f64)> = t.entries().to_vec();
        assert_eq!(got, expect);
    }

    #[test]
    fn stencil_operator_relations_partition_correctly() {
        // The implicit relations drive the same co-partitioning code
        // as stored formats; verify closure correctness for a row-slab
        // partition.
        use kdr_index::{project, project_back, Partition};
        let s = Stencil::lap2d(8, 8);
        let op = StencilOperator::<f64>::new(s);
        let rp = Partition::equal_blocks(64, 4);
        let row = op.row_relation();
        let col = op.col_relation();
        let kp = project_back(row.as_ref(), &rp);
        // The kernel partition covers every non-padding kernel point:
        // offsets ±8 pad 8 points each, offsets ±1 pad 1 each.
        assert_eq!(kp.union_all().cardinality(), 5 * 64 - 18);
        assert!(kp.is_disjoint());
        let dp = project(col.as_ref(), &kp);
        // Each domain piece needs its rows plus one ghost row of the
        // grid (ny = 8 wide).
        assert!(dp.piece(1).cardinality() >= 16 + 8);
        assert!(dp.piece(1).cardinality() <= 16 + 16);
    }

    #[test]
    fn stencil_operator_is_data_free_at_scale() {
        // Construction and relation queries must not allocate O(n).
        let s = Stencil::lap3d7(1 << 10, 1 << 10, 1 << 10); // 2^30 unknowns
        let op = StencilOperator::<f64>::new(s);
        assert_eq!(op.num_diagonals(), 7);
        assert_eq!(op.domain_space().size(), 1 << 30);
        let row = op.row_relation();
        let piece = kdr_index::IntervalSet::from_range(0, 1 << 20);
        let img = row.image(&piece);
        assert!(!img.is_empty());
    }

    #[test]
    fn nnz_formulas_match_materialization() {
        for s in [
            Stencil::lap1d(17),
            Stencil::lap2d(5, 7),
            Stencil::lap3d7(3, 4, 5),
            Stencil::lap3d27(3, 4, 5),
            Stencil::lap1d(1),
            Stencil::lap2d(1, 9),
            Stencil::lap3d27(2, 2, 2),
        ] {
            let t = s.to_triples::<f64>();
            assert_eq!(s.nnz(), t.len() as u64, "kind {:?}", s.kind);
        }
    }

    #[test]
    fn csr_build_matches_triples() {
        let s = Stencil::lap2d(6, 6);
        let direct: Csr<f64, u32> = s.to_csr();
        let via_triples: Csr<f64, u32> = Csr::from_triples(s.to_triples());
        let x: Vec<f64> = (0..36).map(|i| (i as f64).sin()).collect();
        let mut y1 = vec![0.0; 36];
        let mut y2 = vec![0.0; 36];
        direct.spmv(&x, &mut y1);
        via_triples.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn laplacian_is_symmetric() {
        for s in [
            Stencil::lap2d(5, 5),
            Stencil::lap3d7(3, 3, 3),
            Stencil::lap3d27(3, 3, 3),
        ] {
            let c: Csr<f64> = s.to_csr();
            let x = rhs_vector::<f64>(s.unknowns(), 1);
            let y = rhs_vector::<f64>(s.unknowns(), 2);
            let mut ax = vec![0.0; x.len()];
            let mut ay = vec![0.0; y.len()];
            c.spmv(&x, &mut ax);
            c.spmv(&y, &mut ay);
            let yax: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
            let xay: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
            assert!((yax - xay).abs() < 1e-9 * yax.abs().max(1.0));
        }
    }

    #[test]
    fn laplacian_row_sums() {
        // With the constant diagonal, boundary rows have positive row
        // sums and interior rows sum to zero.
        let s = Stencil::lap2d(4, 4);
        let c: Csr<f64> = s.to_csr();
        let ones = vec![1.0; 16];
        let mut y = vec![0.0; 16];
        c.spmv(&ones, &mut y);
        // Interior point (x=1..3, y=1..3) with all 4 neighbors: sum 0.
        assert_eq!(y[5], 0.0);
        // Corner: 4 - 2 = 2.
        assert_eq!(y[0], 2.0);
    }

    #[test]
    fn tiles_reassemble_to_whole() {
        let s = Stencil::lap2d(8, 4);
        let n = s.unknowns();
        let whole: Csr<f64> = s.to_csr();
        let x = rhs_vector::<f64>(n, 5);
        let mut expect = vec![0.0; n as usize];
        whole.spmv(&x, &mut expect);
        // Cut into 2x2 tiles of size 16.
        let mut acc = vec![0.0; n as usize];
        for ti in 0..2u64 {
            for tj in 0..2u64 {
                let tile: Csr<f64> = s.tile_csr(ti * 16, (ti + 1) * 16, tj * 16, (tj + 1) * 16);
                let xs = &x[(tj * 16) as usize..((tj + 1) * 16) as usize];
                let mut ys = vec![0.0; 16];
                tile.spmv(xs, &mut ys);
                for (r, v) in ys.into_iter().enumerate() {
                    acc[(ti * 16) as usize + r] += v;
                }
            }
        }
        for i in 0..n as usize {
            assert!((acc[i] - expect[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn slab_nnz_matches_exact() {
        for s in [
            Stencil::lap2d(8, 8),
            Stencil::lap3d7(4, 4, 4),
            Stencil::lap3d27(4, 3, 3),
            Stencil::lap1d(32),
        ] {
            let n = s.unknowns();
            let bounds = [(0, n), (0, n / 2), (n / 4, 3 * n / 4), (n - 1, n), (5, 5)];
            for (lo, hi) in bounds {
                let tile: Csr<f64> = s.tile_csr(lo, hi, 0, n);
                assert_eq!(
                    s.slab_nnz(lo, hi),
                    tile.nnz(),
                    "kind {:?} slab {lo}..{hi}",
                    s.kind
                );
            }
        }
    }

    #[test]
    fn slab_nnz_mid_layer_slab_not_double_counted() {
        // Regression: a slab strictly inside one x-layer that does not
        // start on a layer boundary used to be counted by both the
        // partial-head and partial-tail loops.
        for s in [
            Stencil::lap2d(1, 3),
            Stencil::lap3d7(1, 1, 3),
            Stencil::lap3d27(1, 1, 3),
            Stencil::lap3d7(4, 4, 4),
        ] {
            let n = s.unknowns();
            for lo in 0..n {
                for hi in lo..=n {
                    let tile: Csr<f64> = s.tile_csr(lo, hi, 0, n);
                    assert_eq!(
                        s.slab_nnz(lo, hi),
                        tile.nnz(),
                        "kind {:?} slab {lo}..{hi}",
                        s.kind
                    );
                }
            }
        }
    }

    #[test]
    fn rhs_vector_in_unit_interval() {
        let v = rhs_vector::<f64>(1000, 42);
        assert!(v.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Deterministic.
        assert_eq!(v, rhs_vector::<f64>(1000, 42));
        // Not constant.
        assert!(v.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn dims_validation() {
        assert_eq!(StencilKind::Lap2D5.dims(), 2);
        assert_eq!(StencilKind::Lap3D27.points(), 27);
    }

    #[test]
    #[should_panic(expected = "needs nz = 1")]
    fn bad_dims_rejected() {
        Stencil::new(StencilKind::Lap2D5, 4, 4, 2);
    }
}
