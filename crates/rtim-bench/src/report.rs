//! Plain-text reporting shared by the experiment binaries.
//!
//! Each figure of the paper is a set of series (one per method) over a
//! swept parameter; [`Series`] captures that structure and
//! [`format_series`] renders it as an aligned text table with one row per
//! parameter value and one column per series — the exact data a plotting
//! script would consume.

use std::fmt::Write as _;

/// One line in a figure: a named series of (x, y) points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name (e.g. a method name).
    pub name: String,
    /// The y values, aligned with the sweep's x values.
    pub values: Vec<f64>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Series {
            name: name.into(),
            values,
        }
    }
}

/// Formats a figure: `x_label` column followed by one column per series.
pub fn format_series(title: &str, x_label: &str, xs: &[String], series: &[Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{x_label:>12}");
    for s in series {
        let _ = write!(out, " {:>14}", s.name);
    }
    let _ = writeln!(out);
    for (i, x) in xs.iter().enumerate() {
        let _ = write!(out, "{x:>12}");
        for s in series {
            match s.values.get(i) {
                Some(v) => {
                    let _ = write!(out, " {:>14}", format_value(*v));
                }
                None => {
                    let _ = write!(out, " {:>14}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Formats a plain table with a header row and aligned columns.
pub fn format_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    for (i, h) in header.iter().enumerate() {
        let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
    }
    let _ = writeln!(out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(
                out,
                "{:>w$}  ",
                cell,
                w = widths.get(i).copied().unwrap_or(8)
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// Human-friendly numeric formatting: large values get thousands separators
/// dropped in favour of `k`/`M` suffixes, small values keep two decimals.
pub fn format_value(v: f64) -> String {
    if !v.is_finite() {
        return "inf".to_string();
    }
    let a = v.abs();
    if a >= 1_000_000.0 {
        format!("{:.2}M", v / 1_000_000.0)
    } else if a >= 10_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_table_is_aligned_and_complete() {
        let xs = vec!["0.1".to_string(), "0.2".to_string()];
        let series = vec![
            Series::new("SIC", vec![100.0, 200.0]),
            Series::new("IC", vec![90.0]),
        ];
        let out = format_series("Figure X", "beta", &xs, &series);
        assert!(out.contains("# Figure X"));
        assert!(out.contains("SIC"));
        assert!(out.contains("100"));
        // Missing second value of IC is rendered as '-'.
        assert!(out.contains('-'));
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    fn value_formatting_uses_suffixes() {
        assert_eq!(format_value(1_500_000.0), "1.50M");
        assert_eq!(format_value(25_000.0), "25.0k");
        assert_eq!(format_value(123.4), "123");
        assert_eq!(format_value(4.5678), "4.57");
        assert_eq!(format_value(f64::INFINITY), "inf");
    }

    #[test]
    fn plain_table_renders_rows() {
        let out = format_table(
            "Table 3",
            &["Dataset", "Users"],
            &[vec!["Reddit".into(), "2628904".into()]],
        );
        assert!(out.contains("Reddit"));
        assert!(out.contains("Users"));
    }
}
