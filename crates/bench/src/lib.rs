//! Shared harness for the figure-regeneration binaries.
//!
//! Each `fig*` binary regenerates one figure of the paper's evaluation
//! (§5, Figures 2 and 7–12) on the simulated platform and prints the same
//! rows/series the paper plots, alongside the paper's reported values where
//! the paper states them. Run them all with `cargo run -p gmac-bench --bin
//! figures` (results land in `results/`).

#![warn(missing_docs)]

pub mod evict;
pub mod race;

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple fixed-width text table (markdown-compatible).
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) -> &mut Self {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {cell:<w$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<width$}|", "", width = w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Writes figure output both to stdout and to `results/<name>.txt`.
pub fn emit(name: &str, body: &str) {
    println!("{body}");
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        if let Ok(mut f) = fs::File::create(dir.join(format!("{name}.txt"))) {
            let _ = f.write_all(body.as_bytes());
        }
    }
}

/// Formats a ratio like the paper's slow-down axis.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats seconds with three significant figures.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// Formats a byte count with binary units (re-export of hetsim's helper).
pub fn fmt_bytes(b: u64) -> String {
    hetsim::fmt_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "2.50x"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("| name"));
        assert!(lines[1].starts_with("|--"));
        assert!(lines[3].contains("| longer | 2.50x |"));
        // All lines same width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ratio(65.178), "65.18x");
        assert_eq!(fmt_secs(1.5), "1.500 s");
        assert_eq!(fmt_secs(0.0025), "2.500 ms");
        assert_eq!(fmt_secs(0.000002), "2.0 us");
    }
}
