//! Plain-text tables for the experiment harness (the rows/series the paper
//! reports, printed in a stable format).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple text table. Text columns render left-aligned; columns whose
/// every data cell is numeric (plain numbers, or numbers carrying the
/// harness's unit suffixes `%`/`ms`/`s`/`x` and an optional sign) render
/// right-aligned so magnitudes line up. A table with zero data rows
/// renders as header + separator only.
///
/// # Examples
///
/// ```
/// use marl_perf::report::Table;
/// let mut t = Table::new(&["config", "time (s)"]);
/// t.row(&["baseline", "12.5"]);
/// let s = t.to_string();
/// assert!(s.contains("baseline"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends one row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether column `j` should right-align: every data cell parses as
    /// a number (unit suffixes `%`, `ms`, `s`, `x` and signs allowed).
    /// Zero-row tables have no numeric evidence, so nothing right-aligns.
    fn column_is_numeric(&self, j: usize) -> bool {
        !self.rows.is_empty()
            && self.rows.iter().all(|row| row.get(j).is_some_and(|c| cell_is_numeric(c)))
    }
}

/// Recognizes the numeric cell shapes the harness emits: `"42"`,
/// `"51.2%"`, `"3.14"`, `"10.00ms"`, `"123s"`, `"1.85x"`, `"+25.8%"`.
fn cell_is_numeric(s: &str) -> bool {
    let t = s.trim();
    let t = t
        .strip_suffix("ms")
        .or_else(|| t.strip_suffix('%'))
        .or_else(|| t.strip_suffix('s'))
        .or_else(|| t.strip_suffix('x'))
        .unwrap_or(t);
    !t.is_empty() && t.parse::<f64>().is_ok()
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let numeric: Vec<bool> =
            (0..self.headers.len()).map(|j| self.column_is_numeric(j)).collect();
        let line =
            |f: &mut fmt::Formatter<'_>, cells: &[String], align_numeric: bool| -> fmt::Result {
                write!(f, "|")?;
                for ((c, w), num) in cells.iter().zip(&widths).zip(&numeric) {
                    if align_numeric && *num {
                        write!(f, " {c:>w$} |")?;
                    } else {
                        write!(f, " {c:<w$} |")?;
                    }
                }
                writeln!(f)
            };
        line(f, &self.headers, false)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row, true)?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `0.512` →
/// `"51.2%"`.
pub fn percent(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Formats seconds with adaptive precision.
pub fn seconds(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["xxxxx", "1"]);
        t.row(&["y", "2"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn row_width_checked() {
        Table::new(&["a", "b"]).row(&["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(percent(0.512), "51.2%");
        assert_eq!(seconds(123.4), "123");
        assert_eq!(seconds(3.13959), "3.14");
        assert_eq!(seconds(0.01), "10.00ms");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(&["h"]);
        assert!(t.is_empty());
        t.row_owned(vec!["v".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn numeric_columns_right_align() {
        let mut t = Table::new(&["phase", "time", "share"]);
        t.row(&["sampling", "10.00ms", "51.2%"]);
        t.row(&["soft-update", "3.14", "1.9%"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        // Text column stays left-aligned: label flush against the left pad.
        assert!(lines[2].starts_with("| sampling "));
        // Numeric columns right-align: the shorter value is padded on the
        // left so its last digit lines up with the column edge.
        assert!(lines[3].contains("    3.14 |"), "got: {}", lines[3]);
        assert!(lines[3].ends_with(" 1.9% |"), "got: {}", lines[3]);
        assert!(lines[2].ends_with("51.2% |"), "got: {}", lines[2]);
    }

    #[test]
    fn mixed_column_stays_left_aligned() {
        let mut t = Table::new(&["v"]);
        t.row(&["12"]);
        t.row(&["n/a"]);
        let s = t.to_string();
        // One non-numeric cell disqualifies the whole column.
        assert!(s.lines().nth(2).unwrap().starts_with("| 12 "));
    }

    #[test]
    fn numeric_cell_shapes() {
        for ok in ["42", "51.2%", "10.00ms", "123s", "1.85x", "+25.8%", "-3.1", " 7 "] {
            assert!(cell_is_numeric(ok), "{ok:?} should be numeric");
        }
        for no in ["", "ms", "x", "n/a", "fast", "1.2.3", "--5"] {
            assert!(!cell_is_numeric(no), "{no:?} should not be numeric");
        }
    }

    #[test]
    fn zero_row_table_renders_header_only() {
        let t = Table::new(&["alpha", "beta"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2, "header + separator only");
        assert!(lines[0].contains("alpha"));
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    fn zero_column_table_is_harmless() {
        let t = Table::new(&[]);
        assert!(t.is_empty());
        let s = t.to_string();
        assert_eq!(s.lines().count(), 2);
    }
}
