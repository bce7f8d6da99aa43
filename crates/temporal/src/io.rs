//! CSV import/export for datasets.
//!
//! Instant-stamped data usually arrives as CSV (box scores, connection logs,
//! sensor dumps). This module reads and writes a minimal dialect — an
//! optional header row, comma-separated numeric columns, rows in arrival
//! order — without external dependencies. An optional leading `t` column
//! carries wall-clock timestamps; query semantics always use row order.

use crate::Dataset;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors raised by CSV import.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A cell failed to parse as a number.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// 1-based column index of the offending cell.
        column: usize,
        /// The raw cell contents.
        cell: String,
    },
    /// A cell parses as a number but not a finite one (`NaN`, `inf`):
    /// scores and skylines are only defined over finite attributes.
    NonFinite {
        /// 1-based line number of the offending row.
        line: usize,
        /// 1-based column index of the offending cell.
        column: usize,
        /// The raw cell contents.
        cell: String,
    },
    /// A row's arity differs from the first row's.
    Arity {
        /// 1-based line number of the offending row.
        line: usize,
        /// Column count established by the first row.
        expected: usize,
        /// Column count actually found.
        got: usize,
    },
    /// The input contains no data rows.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::Parse { line, column, cell } => {
                write!(f, "line {line}, column {column}: cannot parse {cell:?} as a number")
            }
            CsvError::NonFinite { line, column, cell } => {
                write!(f, "line {line}, column {column}: {cell:?} is not a finite number")
            }
            CsvError::Arity { line, expected, got } => {
                write!(f, "line {line}: expected {expected} columns, got {got}")
            }
            CsvError::Empty => write!(f, "no data rows in input"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Result of a CSV import: the dataset plus column names (when a header was
/// present).
#[derive(Debug)]
pub struct CsvImport {
    /// The imported dataset, rows in file order.
    pub dataset: Dataset,
    /// Column names from the header row, if one was detected.
    pub columns: Option<Vec<String>>,
}

/// Reads a dataset from CSV text.
///
/// A first row whose cells do not all parse as numbers is treated as a
/// header. A leading column named `t` (case-insensitive, header required) is
/// stored as wall-clock timestamps rather than as an attribute. A cell that
/// parses to NaN or ±∞ is rejected ([`CsvError::NonFinite`]).
pub fn read_csv<R: Read>(reader: R) -> Result<CsvImport, CsvError> {
    let reader = BufReader::new(reader);
    let mut dataset: Option<Dataset> = None;
    let mut columns: Option<Vec<String>> = None;
    let mut time_column = false;
    let mut expected = 0usize;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let cells: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if dataset.is_none() && columns.is_none() {
            // First contentful row: header iff any cell is non-numeric.
            if cells.iter().any(|c| c.parse::<f64>().is_err()) {
                time_column = cells.first().is_some_and(|c| c.eq_ignore_ascii_case("t"));
                let names: Vec<String> = if time_column {
                    cells[1..].iter().map(|s| s.to_string()).collect()
                } else {
                    cells.iter().map(|s| s.to_string()).collect()
                };
                expected = cells.len();
                columns = Some(names);
                continue;
            }
        }
        if dataset.is_none() {
            if columns.is_none() {
                expected = cells.len();
            }
            let dim = expected - usize::from(time_column);
            if dim == 0 {
                return Err(CsvError::Arity { line: lineno + 1, expected: 2, got: 1 });
            }
            dataset = Some(Dataset::new(dim));
        }
        if cells.len() != expected {
            return Err(CsvError::Arity { line: lineno + 1, expected, got: cells.len() });
        }
        let parse = |idx: usize| -> Result<f64, CsvError> {
            let (line, column, cell) = (lineno + 1, idx + 1, cells[idx].to_string());
            match cells[idx].parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                Ok(_) => Err(CsvError::NonFinite { line, column, cell }),
                Err(_) => Err(CsvError::Parse { line, column, cell }),
            }
        };
        let ds = dataset.as_mut().expect("initialized above");
        if time_column {
            let wall = parse(0)? as i64;
            let attrs: Vec<f64> = (1..expected).map(parse).collect::<Result<_, _>>()?;
            ds.push_with_wall_clock(&attrs, wall);
        } else {
            let attrs: Vec<f64> = (0..expected).map(parse).collect::<Result<_, _>>()?;
            ds.push(&attrs);
        }
    }
    let dataset = dataset.ok_or(CsvError::Empty)?;
    Ok(CsvImport { dataset, columns })
}

/// Reads a dataset from a CSV file.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<CsvImport, CsvError> {
    read_csv(std::fs::File::open(path)?)
}

/// Writes a dataset as CSV, with an optional header.
pub fn write_csv<W: Write>(
    writer: &mut W,
    ds: &Dataset,
    columns: Option<&[&str]>,
) -> std::io::Result<()> {
    let mut buf = String::new();
    if let Some(cols) = columns {
        assert_eq!(cols.len(), ds.dim(), "one column name per attribute");
        buf.push_str(&cols.join(","));
        buf.push('\n');
    }
    for r in ds.iter() {
        for (j, x) in r.attrs.iter().enumerate() {
            if j > 0 {
                buf.push(',');
            }
            let _ = write!(buf, "{x}");
        }
        buf.push('\n');
        if buf.len() > 1 << 20 {
            writer.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    writer.write_all(buf.as_bytes())
}

/// Writes a dataset to a CSV file.
pub fn write_csv_file<P: AsRef<Path>>(
    path: P,
    ds: &Dataset,
    columns: Option<&[&str]>,
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_csv(&mut f, ds, columns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_header() {
        let ds = Dataset::from_rows(2, [[1.5, 2.0], [3.0, -4.25]]);
        let mut out = Vec::new();
        write_csv(&mut out, &ds, Some(&["points", "assists"])).expect("write");
        let imported = read_csv(&out[..]).expect("read");
        assert_eq!(
            imported.columns.as_deref(),
            Some(&["points".to_string(), "assists".to_string()][..])
        );
        assert_eq!(imported.dataset.raw_attrs(), ds.raw_attrs());
    }

    #[test]
    fn headerless_numeric_input() {
        let text = "1,2\n3,4\n5,6\n";
        let imp = read_csv(text.as_bytes()).expect("read");
        assert!(imp.columns.is_none());
        assert_eq!(imp.dataset.len(), 3);
        assert_eq!(imp.dataset.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn time_column_becomes_wall_clock() {
        let text = "t,score\n1000,5\n2000,7\n";
        let imp = read_csv(text.as_bytes()).expect("read");
        assert_eq!(imp.dataset.dim(), 1);
        assert_eq!(imp.dataset.wall_clock(0), Some(1000));
        assert_eq!(imp.dataset.wall_clock(1), Some(2000));
        assert_eq!(imp.dataset.row(1), &[7.0]);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# generated\n\n1,2\n\n3,4\n";
        let imp = read_csv(text.as_bytes()).expect("read");
        assert_eq!(imp.dataset.len(), 2);
    }

    #[test]
    fn parse_error_reports_location() {
        let text = "a,b\n1,2\n3,oops\n";
        match read_csv(text.as_bytes()) {
            Err(CsvError::Parse { line, column, cell }) => {
                assert_eq!((line, column), (3, 2));
                assert_eq!(cell, "oops");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_cells_are_rejected_with_their_location() {
        let text = "a,b\n1,2\n3,1\nNaN,5\n2,2\n4,0\n";
        match read_csv(text.as_bytes()) {
            Err(e @ CsvError::NonFinite { .. }) => {
                assert_eq!(e.to_string(), "line 4, column 1: \"NaN\" is not a finite number");
            }
            other => panic!("expected a non-finite error, got {other:?}"),
        }
        for (text, cell) in [("1,2\n3,inf\n", "inf"), ("1,-infinity\n", "-infinity")] {
            match read_csv(text.as_bytes()) {
                Err(CsvError::NonFinite { cell: got, .. }) => assert_eq!(got, cell),
                other => panic!("expected a non-finite error, got {other:?}"),
            }
        }
    }

    #[test]
    fn arity_error_reports_line() {
        let text = "1,2\n3\n";
        match read_csv(text.as_bytes()) {
            Err(CsvError::Arity { line, expected, got }) => {
                assert_eq!((line, expected, got), (2, 2, 1));
            }
            other => panic!("expected arity error, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(read_csv("".as_bytes()), Err(CsvError::Empty)));
        assert!(matches!(read_csv("# only comments\n".as_bytes()), Err(CsvError::Empty)));
    }
}
