//! Plain-text table rendering for the repro binaries.
//!
//! The repro harness prints the same rows the paper reports; this renderer
//! keeps that output aligned and diff-friendly.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must have the same arity as the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity must match header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Render the table to a string.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let sep = if i + 1 == ncols { "\n" } else { "  " };
                let _ = write!(out, "{:<width$}{}", cell, sep, width = widths[i]);
            }
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Format a float with engineering-style precision for rates ("129.8k").
pub fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Format a fraction of 1 as a percentage string.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows
        assert_eq!(lines.len(), 5);
        // "value" column starts at the same offset in each data line.
        let off = lines[1].find("value").unwrap();
        assert_eq!(&lines[3][off..off + 1], "1");
        assert_eq!(&lines[4][off..off + 2], "22");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(130_840.0), "130.8k");
        assert_eq!(fmt_rate(2_500_000.0), "2.50M");
        assert_eq!(fmt_rate(42.0), "42.0");
        assert_eq!(fmt_pct(53.6), "53.6%");
    }
}
