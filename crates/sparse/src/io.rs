//! Matrix Market I/O.
//!
//! The paper's matrices come from the University of Florida collection in
//! Matrix Market format. No network access is assumed — the benchmarks use
//! the synthetic analogs in [`crate::gen`] — but this reader lets the real
//! files be dropped in (`coordinate real/integer/pattern`,
//! `general/symmetric/skew-symmetric`).

use crate::{Coo, Csr, Result, SparseError};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Read a Matrix Market file into CSR.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<Csr> {
    let f = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(f))
}

/// Read Matrix Market data from any buffered reader.
///
/// A size line with `u32::MAX` or more rows or columns is an error (the
/// sparse formats index with `u32`). A well-formed file's declared row
/// count is taken at its word: the CSR conversion allocates `nrows + 1`
/// row pointers however few entries follow.
pub fn read_matrix_market_from(reader: impl BufRead) -> Result<Csr> {
    let mut lines = reader.lines();

    // Header line.
    let header = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty file".into()))?
        .map_err(SparseError::Io)?;
    let h = header.to_ascii_lowercase();
    let tokens: Vec<&str> = h.split_whitespace().collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse(format!("bad header: {header}")));
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse(format!(
            "only coordinate format supported, got {}",
            tokens[2]
        )));
    }
    let field = tokens[3];
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(SparseError::Parse(format!("unsupported field type {field}")));
    }
    let symmetry = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(SparseError::Parse(format!("unsupported symmetry {other}"))),
    };

    // Size line (skip comments/blank lines).
    let mut size_line = String::new();
    for line in lines.by_ref() {
        let line = line.map_err(SparseError::Io)?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = t.to_string();
        break;
    }
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|e| SparseError::Parse(format!("size line: {e}"))))
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse(format!("bad size line: {size_line}")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if nrows >= u32::MAX as usize || ncols >= u32::MAX as usize {
        return Err(SparseError::Parse(format!(
            "{nrows} x {ncols} exceeds the 32-bit index range"
        )));
    }

    // grown from the entries read, never reserved for the declared `nnz`:
    // a header may declare far more than the file holds
    let mut coo = Coo::new(nrows, ncols);
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(SparseError::Io)?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing row index".into()))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("row index: {e}")))?;
        let j: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing col index".into()))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("col index: {e}")))?;
        let v: f64 = match field {
            "pattern" => 1.0,
            _ => it
                .next()
                .ok_or_else(|| SparseError::Parse("missing value".into()))?
                .parse()
                .map_err(|e| SparseError::Parse(format!("value: {e}")))?,
        };
        if i == 0 || j == 0 {
            return Err(SparseError::Parse("matrix market indices are 1-based".into()));
        }
        coo.push(i - 1, j - 1, v)?;
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if i != j {
                    coo.push(j - 1, i - 1, v)?;
                }
            }
            Symmetry::SkewSymmetric => {
                if i != j {
                    coo.push(j - 1, i - 1, -v)?;
                }
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo.to_csr())
}

/// Write a matrix in Matrix Market `coordinate real general` format.
pub fn write_matrix_market(a: &Csr, path: impl AsRef<Path>) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(f, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            writeln!(f, "{} {} {:e}", i + 1, c as usize + 1, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_general() {
        let data =
            "%%MatrixMarket matrix coordinate real general\n% a comment\n3 3 2\n1 1 2.5\n3 2 -1\n";
        let m = read_matrix_market_from(Cursor::new(data)).unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.get(2, 1), -1.0);
    }

    #[test]
    fn parse_symmetric_mirrors() {
        let data = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 3.0\n";
        let m = read_matrix_market_from(Cursor::new(data)).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn parse_skew_symmetric() {
        let data = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n";
        let m = read_matrix_market_from(Cursor::new(data)).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(0, 1), -3.0);
    }

    #[test]
    fn parse_pattern() {
        let data = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = read_matrix_market_from(Cursor::new(data)).unwrap();
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market_from(Cursor::new("hello\n")).is_err());
        assert!(read_matrix_market_from(Cursor::new(
            "%%MatrixMarket matrix array real general\n2 2\n"
        ))
        .is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market_from(Cursor::new(data)).is_err());
    }

    #[test]
    fn huge_declared_count_is_an_error_not_a_reservation() {
        for symmetry in ["general", "symmetric"] {
            let data = format!(
                "%%MatrixMarket matrix coordinate real {symmetry}\n2 2 {}\n1 1 1.0\n",
                usize::MAX
            );
            let err = read_matrix_market_from(Cursor::new(data)).unwrap_err();
            assert!(err.to_string().contains("expected"), "{symmetry}: {err}");
        }
    }

    #[test]
    fn a_dimension_past_the_index_range_is_an_error_not_a_panic() {
        for size in ["4294967295 1 0", "1 4294967295 0", "18446744073709551615 2 0"] {
            let data = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            let err = read_matrix_market_from(Cursor::new(data)).unwrap_err();
            assert!(err.to_string().contains("32-bit index range"), "{size}: {err}");
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let a = crate::gen::laplace2d(4, 4);
        let dir = std::env::temp_dir().join("ca_sparse_io_test.mtx");
        write_matrix_market(&a, &dir).unwrap();
        let b = read_matrix_market(&dir).unwrap();
        assert_eq!(a.nnz(), b.nnz());
        for i in 0..a.nrows() {
            let (c1, v1) = a.row(i);
            let (c2, v2) = b.row(i);
            assert_eq!(c1, c2);
            for (x, y) in v1.iter().zip(v2) {
                assert!((x - y).abs() < 1e-12);
            }
        }
        let _ = std::fs::remove_file(dir);
    }
}
