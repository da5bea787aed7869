//! Minimal table rendering (aligned ASCII and CSV) for experiment output.

/// A titled table of string cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified by the caller).
    ///
    /// # Panics
    /// Panics if the arity differs from the header count.
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Convenience for heterogeneous rows.
    pub fn push_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        self.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:width$} |", c, width = widths[i]));
            }
            out.push_str(&s);
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let sep: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        out.push_str(&"-".repeat(sep));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas).
    pub fn to_csv(&self) -> String {
        let esc = |c: &String| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the ASCII rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_ascii());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_alignment_and_title() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push(vec!["a".into(), "1".into()]);
        t.push(vec!["long-name".into(), "22".into()]);
        let s = t.to_ascii();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| long-name | 22    |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["1,2".into(), "say \"hi\"".into()]);
        let s = t.to_csv();
        assert!(s.contains("\"1,2\""));
        assert!(s.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a"]);
        t.push(vec!["1".into(), "2".into()]);
    }
}
