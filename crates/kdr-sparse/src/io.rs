//! Matrix Market I/O.
//!
//! A small reader/writer for the `%%MatrixMarket matrix coordinate
//! real general/symmetric` subset — enough to ingest external test
//! matrices and to dump generated systems for inspection. The paper's
//! experiments need no external data (matrices are generated at
//! runtime), so this module exists for users, not for the benchmarks.

use std::io::{BufRead, Write};

use crate::scalar::Scalar;
use crate::triples::Triples;

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The contents were not valid Matrix Market data.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(m) => write!(f, "Matrix Market parse error: {m}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Read a coordinate-format Matrix Market stream into a [`Triples`].
/// Supports `general` and `symmetric` symmetry (symmetric entries are
/// mirrored; diagonal entries are not duplicated).
pub fn read_matrix_market<T: Scalar, R: BufRead>(reader: R) -> Result<Triples<T>, MmError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| MmError::Parse("empty stream".into()))??;
    // The banner is matched word by word: `skew-symmetric` contains
    // `symmetric` but mirrors with a sign flip.
    let words: Vec<String> = header
        .split_whitespace()
        .map(str::to_ascii_lowercase)
        .collect();
    let symmetric = match words.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["%%matrixmarket", "matrix", "coordinate", "real", "general"] => false,
        ["%%matrixmarket", "matrix", "coordinate", "real", "symmetric"] => true,
        ["%%matrixmarket", ..] => {
            return Err(MmError::Parse(format!(
                "only `matrix coordinate real general|symmetric` is supported, got: {header}"
            )))
        }
        _ => return Err(MmError::Parse(format!("bad header: {header}"))),
    };

    // Skip comments, read the size line.
    let size_line = loop {
        let line = lines
            .next()
            .ok_or_else(|| MmError::Parse("missing size line".into()))??;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        break line;
    };
    let mut it = size_line.split_whitespace();
    let rows: u64 = parse(it.next(), "rows")?;
    let cols: u64 = parse(it.next(), "cols")?;
    let nnz: usize = parse(it.next(), "nnz")?;
    if symmetric && rows != cols {
        // A mirrored `(j, i)` would land outside a non-square matrix.
        return Err(MmError::Parse(format!(
            "symmetric matrix must be square, got {rows} x {cols}"
        )));
    }

    let mut t = Triples::new(rows, cols);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let i: u64 = parse(it.next(), "row index")?;
        let j: u64 = parse(it.next(), "col index")?;
        let v: f64 = parse(it.next(), "value")?;
        if i == 0 || j == 0 || i > rows || j > cols {
            return Err(MmError::Parse(format!(
                "coordinate ({i}, {j}) out of range"
            )));
        }
        // Matrix Market is 1-based.
        t.push(i - 1, j - 1, T::from_f64(v));
        if symmetric && i != j {
            t.push(j - 1, i - 1, T::from_f64(v));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MmError::Parse(format!(
            "expected {nnz} entries, found {seen}"
        )));
    }
    Ok(t)
}

fn parse<F: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<F, MmError> {
    tok.ok_or_else(|| MmError::Parse(format!("missing {what}")))?
        .parse()
        .map_err(|_| MmError::Parse(format!("malformed {what}")))
}

/// Write a coordinate-format `general` Matrix Market stream.
pub fn write_matrix_market<T: Scalar, W: Write>(
    t: &Triples<T>,
    mut writer: W,
) -> Result<(), MmError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "{} {} {}", t.rows(), t.cols(), t.len())?;
    for &(i, j, v) in t.entries() {
        writeln!(writer, "{} {} {:e}", i + 1, j + 1, v.to_f64())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn roundtrip() {
        let t = Triples::from_entries(3, 4, vec![(0, 1, 1.5), (2, 3, -2.0), (1, 0, 0.25)]);
        let mut buf = Vec::new();
        write_matrix_market(&t, &mut buf).unwrap();
        let back: Triples<f64> = read_matrix_market(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.rows(), 3);
        assert_eq!(back.cols(), 4);
        let mut a = t.entries().to_vec();
        let mut b = back.entries().to_vec();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_mirroring() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
                   % a comment\n\
                   3 3 2\n\
                   1 1 2.0\n\
                   3 1 -1.0\n";
        let t: Triples<f64> = read_matrix_market(BufReader::new(src.as_bytes())).unwrap();
        assert_eq!(t.len(), 3); // diagonal not mirrored, off-diagonal is
        let y = t.dense_apply(&[1.0, 0.0, 1.0]);
        assert_eq!(y, vec![1.0, 0.0, -1.0]);
    }

    #[test]
    fn rejects_bad_header() {
        let src = "not a matrix market file\n1 1 0\n";
        assert!(read_matrix_market::<f64, _>(BufReader::new(src.as_bytes())).is_err());
    }

    #[test]
    fn rejects_out_of_range() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(BufReader::new(src.as_bytes())).is_err());
    }

    #[test]
    fn rejects_symmetric_non_square() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n";
        let got = read_matrix_market::<f64, _>(BufReader::new(src.as_bytes()));
        assert!(matches!(got, Err(MmError::Parse(_))));
    }

    #[test]
    fn rejects_unsupported_symmetry() {
        for symmetry in ["skew-symmetric", "hermitian", "symmetric general"] {
            let src = format!("%%MatrixMarket matrix coordinate real {symmetry}\n2 2 1\n2 1 1.0\n");
            let got = read_matrix_market::<f64, _>(BufReader::new(src.as_bytes()));
            assert!(matches!(got, Err(MmError::Parse(_))), "{symmetry}: {got:?}");
        }
    }

    #[test]
    fn rejects_wrong_count() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(BufReader::new(src.as_bytes())).is_err());
    }
}
