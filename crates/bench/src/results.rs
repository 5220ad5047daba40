//! Result rows: aligned console tables plus JSON lines for archival.

use std::path::Path;

use crate::harness::Stat;

/// One result row: printable `(column, value)` cells in insertion order,
/// and — until [`Run::measure`](crate::harness::Run::measure) has summarized
/// them into cells — this repetition's wall-clock samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// Ordered cells.
    pub cells: Vec<(String, String)>,
    /// `(column, value, decimals to print)` per wall-clock sample.
    pub samples: Vec<(String, f64, usize)>,
}

impl Row {
    /// Empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Add a cell (builder style): a count, a verdict, a simulated-ledger
    /// value — anything that is not a wall-clock measurement.
    pub fn with(mut self, key: &str, value: impl ToString) -> Row {
        self.cells.push((key.to_owned(), value.to_string()));
        self
    }

    /// Add this repetition's sample of a wall-clock cell (or of a value
    /// derived from one). NaN marks a cell this repetition did not produce.
    pub fn wall(mut self, key: &str, value: f64, decimals: usize) -> Row {
        self.samples.push((key.to_owned(), value, decimals));
        self
    }

    /// Add a summarized wall-clock cell: `key` (median), `key_p5`,
    /// `key_p95`, and the row's repetition count `n` in front of the first
    /// such cell. A cell no repetition produced (NaN) prints as `-`.
    pub fn stat(self, key: &str, s: &Stat, decimals: usize) -> Row {
        let cell = |v: f64| match v.is_nan() {
            true => "-".to_owned(),
            false => format!("{v:.decimals$}"),
        };
        let row = match self.get("n") {
            Some(_) => self,
            None => self.with("n", s.n),
        };
        row.with(key, cell(s.median))
            .with(&format!("{key}_p5"), cell(s.p5))
            .with(&format!("{key}_p95"), cell(s.p95))
    }

    /// The value of column `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        let cell = self.cells.iter().find(|(k, _)| k == key);
        cell.map(|(_, v)| v.as_str())
    }
}

/// Rows as an aligned table under a title: every column any row has, in
/// order of first appearance.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = format!("\n== {title} ==\n");
    if rows.is_empty() {
        return out + "(no rows)\n";
    }
    let mut columns: Vec<&str> = Vec::new();
    for (key, _) in rows.iter().flat_map(|r| &r.cells) {
        if !columns.contains(&key.as_str()) {
            columns.push(key);
        }
    }
    let width = |c: &&str| {
        let cells = rows.iter().map(|r| r.get(c).unwrap_or("").chars().count());
        cells.fold(c.chars().count(), usize::max)
    };
    let widths: Vec<usize> = columns.iter().map(width).collect();
    let mut line = |cells: Vec<&str>| {
        let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
        out.push_str(padded.collect::<Vec<_>>().join("  ").trim_end());
        out.push('\n');
    };
    line(columns.clone());
    for row in rows {
        line(columns.iter().map(|c| row.get(c).unwrap_or("")).collect());
    }
    out
}

/// Write rows as JSON lines to `<dir>/<name>.jsonl`, replacing the file.
pub fn write_json(dir: &Path, name: &str, rows: &[Row]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = String::new();
    for row in rows {
        let cells = row.cells.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        out.push_str(&util::json::object(cells));
        out.push('\n');
    }
    std::fs::write(dir.join(format!("{name}.jsonl")), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(row: &Row) -> Vec<&str> {
        row.cells.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn rows_keep_cells() {
        let r = Row::new().with("zeta", 1).with("alpha", "x");
        assert_eq!(keys(&r), ["zeta", "alpha"], "insertion order");
        assert_eq!(r.get("zeta"), Some("1"));
        assert_eq!((r.get("alpha"), r.get("missing")), (Some("x"), None));

        // A summarized wall-clock cell carries n, median and spread.
        let s = Stat::of(&[1.0, 2.0, 3.0], 3).unwrap();
        let r = Row::new()
            .with("rows", 9)
            .stat("ms", &s, 1)
            .stat("us", &s, 0);
        let expected = [
            "rows", "n", "ms", "ms_p5", "ms_p95", "us", "us_p5", "us_p95",
        ];
        assert_eq!(keys(&r), expected);
        assert_eq!(r.get("n"), Some("3"));
        assert_eq!(
            (r.get("ms"), r.get("ms_p95"), r.get("us_p5")),
            (Some("2.0"), Some("2.9"), Some("1"))
        );
        let nan = Stat::of(&[f64::NAN; 3], 3).unwrap();
        assert_eq!(Row::new().stat("ms", &nan, 1).get("ms"), Some("-"));
    }

    /// Ragged rows: a column absent from the first row is still printed,
    /// and columns keep their order of first appearance.
    #[test]
    fn print_does_not_panic_on_ragged_rows() {
        let rows = vec![
            Row::new().with("zeta", 1).with("alpha", "yyyy"),
            Row::new().with("zeta", 22).with("late", "only-here"),
        ];
        let text = render_table("test", &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "== test ==");
        assert_eq!(lines[2], "zeta  alpha       late");
        assert_eq!(lines[3], "   1   yyyy");
        assert_eq!(lines[4], "  22         only-here");
        assert!(render_table("empty", &[]).contains("(no rows)"));
    }
}
