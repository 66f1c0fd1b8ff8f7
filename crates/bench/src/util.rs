//! Small formatting and timing helpers shared by the experiments.

use std::time::{Duration, Instant};

use datagen::spec::levenshtein;

/// A simple fixed-width text table builder for paper-style output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells are padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
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

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Times a closure, returning its result and the elapsed wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Parses a CLI flag value, validating it with `ok`; the smoke-bench
/// binaries share this for their hand-rolled argument loops.
pub fn parse_checked<T: std::str::FromStr + Copy>(
    value: &str,
    ok: impl Fn(T) -> bool,
) -> Result<T, String> {
    value
        .parse::<T>()
        .ok()
        .filter(|v| ok(*v))
        .ok_or_else(|| format!("invalid value {value:?}"))
}

/// Runs `f` `repeats` times and returns the minimum wall-clock seconds plus
/// the last result (the workloads are deterministic, so every repetition
/// agrees; callers cross-check the returned value).
pub fn min_timed<T>(repeats: usize, f: impl FnMut() -> T) -> (f64, T) {
    min_timed_n(repeats, 1, f)
}

/// Like [`min_timed`] but each repetition runs `f` `iters` times back to
/// back and reports per-iteration seconds: sub-millisecond sections are
/// amortised over several iterations so the min-of-`repeats` timing sits
/// well above scheduler and timer noise — regression floors must not flake
/// on a loaded CI runner.
pub fn min_timed_n<T>(repeats: usize, iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        for _ in 0..iters {
            last = Some(f());
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    (best, last.expect("repeats and iters >= 1"))
}

/// Formats a duration in the paper's milliseconds-with-floor-of-one style
/// ("execution time less than 1 millisecond is rounded to 1 millisecond").
pub fn format_millis(duration: Duration) -> String {
    let ms = duration.as_secs_f64() * 1e3;
    if ms < 1.0 {
        "1".to_string()
    } else if ms < 100.0 {
        format!("{ms:.1}")
    } else {
        format!("{:.0}", ms)
    }
}

/// The candidates closest to `name` by edit distance, nearest first, keeping
/// only those within `max_distance` (ties keep candidate order).
pub fn closest_matches<'a>(
    name: &str,
    candidates: impl IntoIterator<Item = &'a str>,
    max_distance: usize,
) -> Vec<&'a str> {
    let mut scored: Vec<(usize, &str)> = candidates
        .into_iter()
        .map(|c| (levenshtein(name, c), c))
        .filter(|&(d, _)| d <= max_distance)
        .collect();
    scored.sort_by_key(|&(d, _)| d);
    scored.into_iter().map(|(_, c)| c).collect()
}

/// Peak resident set size (high-water mark) of this process in bytes, or
/// `None` where the platform doesn't expose it.
///
/// Delegates to [`preview_obs::peak_rss_bytes`], the canonical reader (on
/// Linux: `VmHWM` from `/proc/self/status`, the lifetime RSS high-water
/// mark — exactly the "peak memory" a scale benchmark should report, since
/// a post-build measurement still sees the build-time peak). Elsewhere it
/// returns `None` and benchmarks emit `null` rather than a fabricated
/// number.
pub fn peak_rss_bytes() -> Option<u64> {
    preview_obs::peak_rss_bytes()
}

/// Renders an `Option<u64>` as a JSON value: the number, or `null`.
pub fn json_opt_u64(value: Option<u64>) -> String {
    match value {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Formats a float with three decimals (the paper's usual precision).
pub fn fmt3(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats a float with two decimals.
pub fn fmt2(value: f64) -> String {
    format!("{value:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["Domain", "Coverage"]);
        t.row(vec!["books", "0.800"]);
        t.row(vec!["film", "0.2"]);
        let rendered = t.render();
        assert!(rendered.contains("Domain"));
        assert!(rendered.contains("books"));
        assert_eq!(rendered.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["only one"]);
        assert!(t.render().contains("only one"));
    }

    #[test]
    fn timed_returns_value_and_duration() {
        let (value, duration) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(duration.as_nanos() > 0);
    }

    #[test]
    fn millis_formatting_floors_at_one() {
        assert_eq!(format_millis(Duration::from_micros(10)), "1");
        assert_eq!(format_millis(Duration::from_millis(2)), "2.0");
        assert_eq!(format_millis(Duration::from_millis(1500)), "1500");
    }

    #[test]
    fn closest_matches_ranks_by_distance() {
        let catalog = ["table2", "table3", "fig5"];
        assert_eq!(
            closest_matches("tabl3", catalog, 2),
            vec!["table3", "table2"]
        );
        assert_eq!(closest_matches("figure5", catalog, 2), Vec::<&str>::new());
        assert_eq!(closest_matches("fig6", catalog, 2), vec!["fig5"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt3(0.12345), "0.123");
        assert_eq!(fmt2(5.67891), "5.68");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_on_linux() {
        let peak = peak_rss_bytes().expect("/proc/self/status has VmHWM");
        assert!(peak > 0);
    }

    #[test]
    fn json_opt_u64_renders_null_and_numbers() {
        assert_eq!(json_opt_u64(Some(7)), "7");
        assert_eq!(json_opt_u64(None), "null");
    }
}
