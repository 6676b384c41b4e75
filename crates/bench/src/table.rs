//! Plain-text table rendering (markdown-compatible).

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Access a cell (row, col) — used by tests asserting on results.
    pub fn cell(&self, r: usize, c: usize) -> &str {
        &self.rows[r][c]
    }

    /// Render as a markdown table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format microseconds as milliseconds with two decimals.
pub fn ms(us: u64) -> String {
    format!("{:.2}ms", us as f64 / 1000.0)
}

/// Format a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Render a per-phase latency breakdown as a table: one row per phase, in
/// first-recorded order, with count / p50 / p95 / max columns.
pub fn phase_table(title: impl Into<String>, phases: &dvp_obs::PhaseHists) -> Table {
    let mut t = Table::new(title, &["phase", "count", "p50", "p95", "max"]);
    for (name, h) in phases.iter() {
        t.row(vec![
            name.to_string(),
            h.count().to_string(),
            ms(h.percentile(50.0)),
            ms(h.percentile(95.0)),
            ms(h.max()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["beta,2".into(), "2".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.contains("## Demo"));
        assert!(r.contains("| name   | value |"));
        assert!(r.contains("| alpha  | 1     |"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(ms(1500), "1.50ms");
        assert_eq!(f2(1.234), "1.23");
    }

    #[test]
    fn cell_access() {
        let t = sample();
        assert_eq!(t.cell(0, 0), "alpha");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
