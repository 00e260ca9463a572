//! One measured pass of a benchmark workload, in a fresh process.
//!
//! `perfbench/run.py` is the benchmark's command: it builds this binary,
//! starts it once per pass (so solver memos, per-thread scratch and
//! store locks never carry over from an earlier pass), and aggregates
//! the passes into medians. Each pass prints one JSON object on its last
//! line of standard output.
//!
//! ```text
//! perfbench spec       --seed S --scale N
//! perfbench grid       --seed S --scale N --workers W [--trace 1] [--check-cell K]
//! perfbench store-cold --seed S --scale N --workers W --dir D [--trace 1]
//! perfbench store-warm --seed S --scale N --workers W --dir D --expect HASH [--trace 1]
//! perfbench serve-refs --seed S --out FILE --workers W
//! perfbench serve      --seed S --rate R --sessions N --runners R --workers W --refs FILE [--trace 1]
//! ```
//!
//! Every pass reports `ready_unix_ns`, the wall-clock moment its set-up
//! ended, so the caller can time set-up from the moment it started the
//! process.

mod grid;
mod layers;
mod program;
mod serve;

use std::collections::BTreeMap;
use std::time::{SystemTime, UNIX_EPOCH};

/// Parsed `--key value` flags.
pub struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Args { flags })
    }

    /// A required flag parsed as `T`.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> T {
        self.flags
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("--{key} is missing or malformed")))
    }

    /// An optional flag parsed as `T`, `default` when absent.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.flags.get(key) {
            Some(_) => self.get(key),
            None => default,
        }
    }

    /// `--trace 1`.
    pub fn traced(&self) -> bool {
        self.get_or::<u8>("trace", 0) == 1
    }

    /// The spec seed to generate from: `--spec-seed` as `perfbench spec`
    /// chose it, else the workload seed's first candidate.
    pub fn spec_seed(&self) -> u64 {
        self.get_or("spec-seed", first_spec_seed(self.get("seed")))
    }
}

/// The first spec seed a workload seed tries: seed 0 is the paper
/// collection's own seed, so `--seed 0` reproduces the frozen table.
fn first_spec_seed(seed: u64) -> u64 {
    program::default_spec_seed().wrapping_add(seed)
}

/// Candidates `perfbench spec` tries before giving up.
const SPEC_CANDIDATES: u64 = 64;

/// `perfbench spec`: the first spec seed, from the workload seed's
/// candidate on, whose collection generates without a generator panic,
/// and how many candidates panicked before it. The benchmark measures
/// on that seed and reports the panics as `core.gen.spec_panics`.
fn spec(args: &Args, out: &mut Out) -> Result<(), String> {
    let scale: usize = args.get("scale");
    let first = first_spec_seed(args.get("seed"));
    let skipped = (0..SPEC_CANDIDATES)
        .find(|&k| program::spec_generates(scale, first.wrapping_add(k)))
        .ok_or("no candidate spec seed generates")?;
    out.text("spec_seed", &first.wrapping_add(skipped).to_string())
        .num("spec_panics", skipped as f64);
    Ok(())
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// A flat JSON object, written by hand: numbers, booleans and strings.
#[derive(Default)]
pub struct Out(Vec<(String, String)>);

impl Out {
    /// A number (non-finite values are written as 0).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.push((key.to_string(), format!("{v}")));
        self
    }

    /// A boolean.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    /// A string (no escaping needed for the hex and labels written here).
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.0.push((key.to_string(), format!("\"{value}\"")));
        self
    }

    /// A list of numbers.
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let body: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        self.0
            .push((key.to_string(), format!("[{}]", body.join(","))));
        self
    }

    fn print(&self) {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        println!("{{{}}}", body.join(","));
    }
}

/// Wall-clock now, ns since the epoch.
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        usage("missing command");
    };
    let args = Args::parse(rest).unwrap_or_else(|e| usage(&e));
    program::quiet_injected_panics();
    let mut out = Out::default();
    let result = match cmd.as_str() {
        "spec" => spec(&args, &mut out),
        "grid" => grid::grid(&args, &mut out),
        "store-cold" => grid::store_cold(&args, &mut out),
        "store-warm" => grid::store_warm(&args, &mut out),
        "serve-refs" => serve::refs(&args, &mut out),
        "serve" => serve::serve(&args, &mut out),
        other => usage(&format!("unknown command {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench {cmd}: {e}");
        std::process::exit(1);
    }
    out.num("peak_rss_mb", peak_rss_mb());
    out.print();
}
