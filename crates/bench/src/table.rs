//! Minimal fixed-width table rendering for the experiments.

/// A simple text table with a header row.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row; must have as many cells as the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = Vec::with_capacity(self.rows.len() + 2);
        out.push(fmt_row(&self.header));
        out.push(widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            out.push(fmt_row(row));
        }
        let _ = ncols;
        out.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["app", "speedup"]);
        t.row(vec!["minife".into(), "2.22".into()]);
        t.row(vec!["hpcg".into(), "1.67".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[2].starts_with("minife"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only".into()]);
    }
}
