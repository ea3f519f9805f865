//! Timing summaries, host description and the JSON lines the benchmark
//! prints. The JSON is written by hand: the workspace carries no
//! serialisation crate.

use std::fmt::Write as _;
use std::time::Instant;

/// Nanoseconds elapsed since `start`, as `f64`.
pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// A timing summarised as its median and its tail: the highest percentile
/// that still has at least ten samples beyond it (the sample at sorted index
/// `n − 11`). Below 21 samples that percentile would not lie above the
/// median, and the tail is the maximum instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    /// Percentile the tail sits at (100 for the maximum).
    pub tail_pct: f64,
    pub n: usize,
}

pub fn summarise(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail, tail_pct) = if n >= 21 {
        (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (sorted[n - 1], 100.0)
    };
    Summary {
        p50: median_sorted(&sorted),
        tail,
        tail_pct,
        n,
    }
}

/// Median of an unsorted slice (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Named metrics in insertion order, printed as the `metrics` object of the
/// result line.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// A timing as `<name>.p50`, `<name>.tail` and `<name>.n`; also prints
    /// it as a line that names the tail's percentile.
    pub fn put_summary(&mut self, name: &str, s: &Summary, unit: &'static str) {
        println!(
            "{{\"timing\": {}, \"unit\": {}, \"p50\": {}, \"tail\": {}, \"tail_pct\": {}, \"n\": {}}}",
            json_string(name),
            json_string(unit),
            json_number(s.p50),
            json_number(s.tail),
            json_number(s.tail_pct),
            s.n
        );
        self.put(format!("{name}.p50"), s.p50, unit);
        self.put(format!("{name}.tail"), s.tail, unit);
        self.put(format!("{name}.n"), s.n as f64, "count");
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                name,
                json_number(*value),
                unit
            );
        }
        out.push('}');
        out
    }
}

/// A finite number in full precision (JSON has no NaN or infinity).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process high-water resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host description for the result header: core count, CPU model, compiler
/// and the commit of the checkout (when it is a git repository).
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    format!(
        "{{\"header\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"cores\": {cores}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}}}",
        json_string(workload),
        json_string(&cpu),
        json_string(&rustc),
        json_string(&commit),
    )
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(str::to_string)
}
