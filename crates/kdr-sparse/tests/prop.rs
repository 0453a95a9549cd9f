//! Property tests: every storage format defines the same linear
//! operator, its relations agree with its entries, partitioned
//! kernels compose to the whole product, and a damaged Matrix Market
//! file reads back as a matrix or a typed error, never a panic.

use std::io::BufReader;

use kdr_sparse::convert;
use kdr_sparse::io::{read_matrix_market, write_matrix_market, MmError};
use kdr_sparse::{Csr, SparseMatrix, Triples};
use proptest::prelude::*;

const MAX_DIM: u64 = 12;

/// Strategy: a random matrix shape plus entries (duplicates allowed).
fn arb_triples() -> impl Strategy<Value = Triples<f64>> {
    (2..MAX_DIM, 2..MAX_DIM).prop_flat_map(|(rows, cols)| {
        prop::collection::vec((0..rows, 0..cols, -4i32..4), 1..40).prop_map(move |entries| {
            Triples::from_entries(
                rows,
                cols,
                entries
                    .into_iter()
                    .map(|(i, j, v)| (i, j, v as f64 * 0.5))
                    .collect(),
            )
        })
    })
}

fn arb_vec(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 37 + 11) % 17) as f64 - 8.0)
        .collect()
}

fn all_formats(t: &Triples<f64>) -> Vec<(&'static str, Box<dyn SparseMatrix<f64>>)> {
    let base: Csr<f64, u32> = Csr::from_triples(t.clone());
    let mut out: Vec<(&'static str, Box<dyn SparseMatrix<f64>>)> = vec![
        ("csc", Box::new(convert::to_csc::<f64, u32>(&base))),
        ("coo", Box::new(convert::to_coo::<f64, u64>(&base))),
        ("coo_aos", Box::new(convert::to_coo_aos::<f64, u32>(&base))),
        ("ell", Box::new(convert::to_ell::<f64, u32>(&base))),
        ("ellt", Box::new(convert::to_ellt::<f64, u32>(&base))),
        ("dia", Box::new(convert::to_dia::<f64>(&base))),
        ("hyb", Box::new(convert::to_hyb::<f64, u32>(&base))),
        ("dense", Box::new(convert::to_dense::<f64>(&base))),
    ];
    // Block formats need aligned dimensions; use 1xN and Nx1 blocks
    // that always divide, plus 2x2 when aligned.
    if t.rows() % 2 == 0 && t.cols() % 2 == 0 {
        out.push(("bcsr", Box::new(convert::to_bcsr::<f64, u32>(&base, 2, 2))));
        out.push(("bcsc", Box::new(convert::to_bcsc::<f64, u32>(&base, 2, 2))));
    }
    out.push(("bcsr1", Box::new(convert::to_bcsr::<f64, u64>(&base, 1, 1))));
    out.push(("csr", Box::new(base)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn formats_agree_on_spmv(t in arb_triples()) {
        let t = t.canonicalize();
        let x = arb_vec(t.cols() as usize);
        let expect = t.dense_apply(&x);
        for (name, m) in all_formats(&t) {
            let mut y = vec![0.0; t.rows() as usize];
            m.spmv(&x, &mut y);
            for i in 0..y.len() {
                prop_assert!((y[i] - expect[i]).abs() < 1e-10, "{name} row {i}: {} vs {}", y[i], expect[i]);
            }
        }
    }

    #[test]
    fn formats_agree_on_adjoint(t in arb_triples()) {
        let t = t.canonicalize();
        let x = arb_vec(t.rows() as usize);
        let expect = t.dense_apply_transpose(&x);
        for (name, m) in all_formats(&t) {
            let mut y = vec![0.0; t.cols() as usize];
            m.spmv_transpose(&x, &mut y);
            for j in 0..y.len() {
                prop_assert!((y[j] - expect[j]).abs() < 1e-10, "{name} col {j}");
            }
        }
    }

    #[test]
    fn piece_kernels_sum_to_whole(t in arb_triples(), pieces in 1usize..6) {
        let t = t.canonicalize();
        let x = arb_vec(t.cols() as usize);
        for (name, m) in all_formats(&t) {
            let mut whole = vec![0.0; t.rows() as usize];
            m.spmv(&x, &mut whole);
            let mut acc = vec![0.0; t.rows() as usize];
            for p in m.kernel_space().all().split_equal(pieces) {
                m.spmv_add_piece(&p, &x, &mut acc);
            }
            for i in 0..acc.len() {
                prop_assert!((acc[i] - whole[i]).abs() < 1e-10, "{name} row {i}");
            }
        }
    }

    #[test]
    fn relations_contain_every_entry(t in arb_triples()) {
        let t = t.canonicalize();
        for (name, m) in all_formats(&t) {
            let row = m.row_relation();
            let col = m.col_relation();
            prop_assert_eq!(row.source_size(), m.kernel_space().size(), "{} row source", name);
            prop_assert_eq!(col.source_size(), m.kernel_space().size(), "{} col source", name);
            prop_assert_eq!(row.target_size(), m.range_space().size(), "{} row target", name);
            prop_assert_eq!(col.target_size(), m.domain_space().size(), "{} col target", name);
            let mut ok = true;
            m.for_each_entry(&mut |k, i, j, _| {
                let mut r = Vec::new();
                row.targets_of(k, &mut r);
                let mut c = Vec::new();
                col.targets_of(k, &mut c);
                // Block formats relate kernel points at block
                // granularity, so we check containment, not equality.
                ok &= r.contains(&i) && c.contains(&j);
            });
            prop_assert!(ok, "{name} relation does not cover its entries");
        }
    }

    #[test]
    fn to_triples_roundtrip_preserves_operator(t in arb_triples()) {
        let t = t.canonicalize();
        let x = arb_vec(t.cols() as usize);
        let expect = t.dense_apply(&x);
        for (name, m) in all_formats(&t) {
            let back: Csr<f64> = Csr::from_triples(m.to_triples());
            let mut y = vec![0.0; t.rows() as usize];
            back.spmv(&x, &mut y);
            for i in 0..y.len() {
                prop_assert!((y[i] - expect[i]).abs() < 1e-10, "{name} roundtrip row {i}");
            }
        }
    }

    #[test]
    fn diagonal_matches_reference(t in arb_triples()) {
        let t = t.canonicalize();
        let n = t.rows().min(t.cols());
        // Make it square by truncation for the diagonal test.
        let sq = t.sub_block(0, n, 0, n);
        let m: Csr<f64> = Csr::from_triples(sq.clone());
        let diag = m.diagonal();
        for i in 0..n {
            let expect: f64 = sq
                .entries()
                .iter()
                .filter(|&&(r, c, _)| r == i && c == i)
                .map(|&(_, _, v)| v)
                .sum();
            prop_assert!((diag[i as usize] - expect).abs() < 1e-12);
        }
    }
}

/// An index a Matrix Market entry may not carry.
#[derive(Clone, Copy, Debug)]
enum BadIndex {
    Zero,
    Negative,
    /// One past the dimension.
    OutOfRange,
    /// `u64::MAX + 1`.
    Overflow,
}

/// How a written Matrix Market file is damaged before it is read back.
#[derive(Clone, Debug)]
enum Mutation {
    /// XOR byte `at` (modulo the length) with a nonzero mask, per pair.
    Flip(Vec<(usize, u8)>),
    /// Keep the first `len` bytes (modulo the length).
    Truncate(usize),
    /// Replace the row (or, with `col`, the column) index of one entry.
    Index {
        entry: usize,
        col: bool,
        bad: BadIndex,
    },
    /// Declare `nnz + delta` entries, `delta != 0`.
    Nnz(i64),
    /// Replace the header's symmetry word `general`.
    Symmetry(&'static str),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let bad = prop_oneof![
        Just(BadIndex::Zero),
        Just(BadIndex::Negative),
        Just(BadIndex::OutOfRange),
        Just(BadIndex::Overflow),
    ];
    prop_oneof![
        prop::collection::vec((0..4096usize, 1..=255u8), 1..4).prop_map(Mutation::Flip),
        (0..4096usize).prop_map(Mutation::Truncate),
        (0..64usize, 0..2u8, bad).prop_map(|(entry, col, bad)| Mutation::Index {
            entry,
            col: col == 1,
            bad,
        }),
        (-3i64..4).prop_map(|d| Mutation::Nnz(if d == 0 { 4 } else { d })),
        prop_oneof![
            Just("symmetric"),
            Just("SYMMETRIC"),
            Just("skew-symmetric"),
            Just("hermitian"),
        ]
        .prop_map(Mutation::Symmetry),
    ]
}

/// `text` (a file `write_matrix_market` wrote for `t`) with `m` applied.
fn mutate(text: &str, t: &Triples<f64>, m: &Mutation) -> Vec<u8> {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    match m {
        Mutation::Flip(flips) => {
            let mut bytes = text.as_bytes().to_vec();
            let n = bytes.len();
            for &(at, mask) in flips {
                bytes[at % n] ^= mask;
            }
            return bytes;
        }
        Mutation::Truncate(len) => return text.as_bytes()[..len % text.len()].to_vec(),
        Mutation::Index { entry, col, bad } => {
            let line = &mut lines[2 + entry % t.len()];
            let mut tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            let dim = if *col { t.cols() } else { t.rows() };
            tokens[usize::from(*col)] = match bad {
                BadIndex::Zero => "0".into(),
                BadIndex::Negative => "-1".into(),
                BadIndex::OutOfRange => (dim + 1).to_string(),
                BadIndex::Overflow => (u128::from(u64::MAX) + 1).to_string(),
            };
            *line = tokens.join(" ");
        }
        Mutation::Nnz(delta) => {
            let nnz = t.len() as i64 + delta;
            lines[1] = format!("{} {} {nnz}", t.rows(), t.cols());
        }
        Mutation::Symmetry(word) => lines[0] = lines[0].replace("general", word),
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A Matrix Market file that was written and then damaged reads
    /// back as a matrix or as a typed `MmError`, never a panic; damage
    /// the format forbids is always an error. Half the matrices are
    /// cut square, where a `symmetric` header is legal.
    #[test]
    fn damaged_matrix_market_files_fail_typed(
        t in arb_triples(),
        square in 0..2u8,
        m in arb_mutation(),
    ) {
        let n = t.rows().min(t.cols());
        let t = if square == 1 { t.sub_block(0, n, 0, n) } else { t };
        prop_assume!(!t.is_empty());
        let mut written = Vec::new();
        write_matrix_market(&t, &mut written).unwrap();
        let back: Triples<f64> = read_matrix_market(BufReader::new(written.as_slice())).unwrap();
        prop_assert_eq!(back.entries(), t.entries());
        let text = String::from_utf8(written).unwrap();
        let bytes = mutate(&text, &t, &m);
        let got = std::panic::catch_unwind(|| {
            read_matrix_market::<f64, _>(BufReader::new(bytes.as_slice()))
        });
        let shown = String::from_utf8_lossy(&bytes);
        let got = match got {
            Ok(got) => got,
            Err(_) => panic!("{m:?} made the reader panic on:\n{shown}"),
        };
        let square = t.rows() == t.cols();
        let must_fail = match &m {
            Mutation::Flip(_) | Mutation::Truncate(_) => false,
            Mutation::Index { .. } | Mutation::Nnz(_) => true,
            Mutation::Symmetry(word) => !(word.eq_ignore_ascii_case("symmetric") && square),
        };
        if must_fail {
            prop_assert!(matches!(got, Err(MmError::Parse(_))), "{m:?} read as {got:?}:\n{shown}");
        }
    }
}
