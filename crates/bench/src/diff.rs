//! `exp --diff`: which cells of the printed tables moved against an
//! older `EXPERIMENTS.md`.
//!
//! Both sides are read the same way: a table is a `## ` title line
//! followed directly by a `|` header line, a separator line and its `|`
//! rows — the shape [`Table::render`](crate::Table::render) prints and
//! `EXPERIMENTS.md` quotes. A row is named by its first cell (a repeated
//! name gets `#2`, `#3`, … in order), a column by its header.

use std::collections::BTreeMap;

/// One parsed table: its header, and its rows by name.
struct Block<'a> {
    header: Vec<&'a str>,
    rows: Vec<(String, Vec<&'a str>)>,
}

fn cells(line: &str) -> Vec<&str> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

/// Every table in `doc`, by title (the first of a repeated title wins),
/// and the titles in the order they appear.
fn blocks(doc: &str) -> (BTreeMap<&str, Block<'_>>, Vec<&str>) {
    let lines: Vec<&str> = doc.lines().collect();
    let (mut found, mut order) = (BTreeMap::new(), Vec::new());
    for (at, line) in lines.iter().enumerate() {
        let Some(title) = line.strip_prefix("## ") else {
            continue;
        };
        let table: Vec<&str> = lines[at + 1..]
            .iter()
            .take_while(|l| l.starts_with('|'))
            .copied()
            .collect();
        if table.len() < 2 || found.contains_key(title) {
            continue;
        }
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        let rows = table[2..]
            .iter()
            .map(|l| {
                let row = cells(l);
                let n = seen.entry(row[0]).or_default();
                *n += 1;
                let name = match *n {
                    1 => row[0].to_string(),
                    n => format!("{}#{n}", row[0]),
                };
                (name, row)
            })
            .collect();
        found.insert(
            title,
            Block {
                header: cells(table[0]),
                rows,
            },
        );
        order.push(title);
    }
    (found, order)
}

/// Every cell of the tables in `new` that differs from the same table,
/// row and column in `old`, one line each, in `new`'s order:
/// `block / row / column: old → new`. A table, row or column `old` does
/// not have is reported as new; a row only `old` has, as gone. Tables
/// only `old` has are not reported: `new` may print a subset.
pub fn diff(old: &str, new: &str) -> String {
    let (old, _) = blocks(old);
    let (new, order) = blocks(new);
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    for title in order {
        let b = &new[title];
        let Some(a) = old.get(title) else {
            line(format!("{title}: new table"));
            continue;
        };
        for col in b.header.iter().skip(1) {
            if !a.header.contains(col) {
                line(format!("{title} / {col}: new column"));
            }
        }
        for (name, row) in &b.rows {
            let Some((_, was)) = a.rows.iter().find(|(n, _)| n == name) else {
                line(format!("{title} / {name}: new row"));
                continue;
            };
            for (c, col) in b.header.iter().enumerate().skip(1) {
                let Some(k) = a.header.iter().position(|h| h == col) else {
                    continue;
                };
                let (from, to) = (was.get(k).copied().unwrap_or(""), row[c]);
                if from != to {
                    line(format!("{title} / {name} / {col}: {from} → {to}"));
                }
            }
        }
        for (name, _) in &a.rows {
            if !b.rows.iter().any(|(n, _)| n == name) {
                line(format!("{title} / {name}: row gone"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = "# Doc\n\n## Prose heading\n\ntext\n\n```\n## T: demo\n\
        | n  | msgs | B   |\n|----|------|-----|\n| 2  | 4    | 10  |\n| 16 | 60   | 99  |\n\
        | 32 | 1    | 1   |\n```\n\n```\n## U: other\n| x | y |\n|---|---|\n| a | 1 |\n```\n";

    #[test]
    fn only_moved_cells_are_named() {
        let new = "## T: demo\n| n  | msgs | B   |\n|----|------|-----|\n| 2  | 4    | 10  |\n\
            | 16 | 61   | 99  |\n| 32 | 1    | 1   |\n\n";
        assert_eq!(diff(OLD, new), "T: demo / 16 / msgs: 60 → 61\n");
        assert_eq!(diff(OLD, OLD), "");
    }

    #[test]
    fn new_and_gone_rows_columns_and_tables_are_named() {
        let new = "## T: demo\n| n | msgs | C |\n|---|---|---|\n| 2 | 4 | 7 |\n| 64 | 5 | 8 |\n\
            \n## V: fresh\n| a |\n|---|\n| 1 |\n";
        assert_eq!(
            diff(OLD, new),
            "T: demo / C: new column\nT: demo / 64: new row\nT: demo / 16: row gone\n\
             T: demo / 32: row gone\nV: fresh: new table\n"
        );
    }

    #[test]
    fn repeated_row_names_are_told_apart_by_order() {
        let old = "## R\n| k | v |\n|---|---|\n| a | 1 |\n| a | 2 |\n";
        let new = "## R\n| k | v |\n|---|---|\n| a | 1 |\n| a | 3 |\n";
        assert_eq!(diff(old, new), "R / a#2 / v: 2 → 3\n");
    }
}
