//! Minimal fixed-width table rendering for the `repro` binary's output.

/// Renders `rows` under `headers` as an aligned plain-text table.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub(crate) fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!("{cell:<w$}  "));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    out.push_str(&"-".repeat(rule_len));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a ratio as the paper's `x` factors, e.g. `3.9x`.
pub(crate) fn x_factor(v: f64) -> String {
    format!("{v:.1}x")
}

/// Formats a fraction as a percentage, e.g. `86.4%`.
pub(crate) fn percent(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats bytes as the paper's parameter counts, e.g. `1327M` (f32
/// parameters) or `14.8B`.
pub(crate) fn param_count(bytes: u64) -> String {
    let params = bytes as f64 / 4.0;
    if params >= 1e9 {
        format!("{:.1}B", params / 1e9)
    } else {
        format!("{:.0}M", params / 1e6)
    }
}

/// Formats bytes as GiB with one decimal, e.g. `57.8G`.
pub fn gib(bytes: u64) -> String {
    format!("{:.1}G", bytes as f64 / 1_073_741_824.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn formatters() {
        assert_eq!(x_factor(3.94), "3.9x");
        assert_eq!(percent(0.864), "86.4%");
        assert_eq!(param_count(400_000_000), "100M");
        assert_eq!(param_count(59_200_000_000), "14.8B");
        assert_eq!(gib(62_052_000_000), "57.8G");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        render_table(&["a", "b"], &[vec!["only one".into()]]);
    }
}
