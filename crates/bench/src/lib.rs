//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each `fig*`/`table*` binary in `src/bin/` reproduces one exhibit; this
//! library holds what they share — the timing protocol, the synthetic
//! suite loader, and the "% within 10 % of best" aggregation used by
//! Figs. 10 and 13.
//!
//! # Timing protocol
//!
//! The paper: "we run the masked-SpGEMM kernel once for warm-up, then for
//! 5 seconds or 10000 iterations, whichever comes first" (§IV-A).
//! [`measure`] implements exactly that, with the budget scaled down by
//! default so the full sweep suite finishes on a laptop; set
//! `MSPGEMM_BUDGET_MS=5000` to reproduce the paper's protocol verbatim.
//!
//! # Environment knobs
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPGEMM_SCALE` | suite graph scale (1.0 ≈ nnz 10⁵–10⁶) | `0.3` |
//! | `MSPGEMM_THREADS` | worker threads | all cores |
//! | `MSPGEMM_BUDGET_MS` | per-config time budget | `300` |
//! | `MSPGEMM_MAX_ITERS` | per-config iteration cap | `10000` |

pub mod micro;

use mspgemm_core::{spgemm, Config};
use mspgemm_gen::{suite_graph, suite_specs, SuiteSpec};
use mspgemm_sparse::{Csr, PlusPair};
use std::time::{Duration, Instant};

/// Parse an environment variable, falling back to `default`.
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Harness options resolved from the environment.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Graph scale passed to [`mspgemm_gen::suite_graph`].
    pub scale: f64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Per-configuration time budget.
    pub budget: Duration,
    /// Per-configuration iteration cap (the paper's 10000).
    pub max_iters: usize,
}

impl HarnessOptions {
    /// Read the `MSPGEMM_*` environment variables.
    pub fn from_env() -> Self {
        HarnessOptions {
            scale: env_or("MSPGEMM_SCALE", 0.3),
            threads: env_or("MSPGEMM_THREADS", 0usize),
            budget: Duration::from_millis(env_or("MSPGEMM_BUDGET_MS", 300u64)),
            max_iters: env_or("MSPGEMM_MAX_ITERS", 10_000usize),
        }
    }
}

/// One suite graph, generated and converted to the paper's benchmark
/// setup: `A = B = M`, boolean values, `plus_pair` semiring operand.
pub struct BenchGraph {
    /// The Table I entry this graph stands in for.
    pub spec: SuiteSpec,
    /// The adjacency matrix (`u64` ones, ready for `plus_pair`).
    pub a: Csr<u64>,
}

impl BenchGraph {
    /// Generate one suite graph at the harness scale.
    pub fn generate(spec: &SuiteSpec, opts: &HarnessOptions) -> Self {
        let a = suite_graph(spec, opts.scale).spones(1u64);
        BenchGraph { spec: *spec, a }
    }

    /// Generate the whole ten-graph suite (prints progress to stderr since
    /// generation takes a few seconds at full scale).
    pub fn generate_suite(opts: &HarnessOptions) -> Vec<BenchGraph> {
        suite_specs()
            .iter()
            .map(|spec| {
                eprintln!("[gen] {} (scale {})", spec.name, opts.scale);
                BenchGraph::generate(spec, opts)
            })
            .collect()
    }
}

/// Outcome of measuring one configuration on one graph.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Mean wall time per kernel invocation.
    pub mean: Duration,
    /// Fastest invocation.
    pub min: Duration,
    /// Invocations executed within the budget.
    pub iters: usize,
}

impl Sample {
    /// Mean time in milliseconds (the paper's reporting unit).
    pub fn ms(&self) -> f64 {
        self.mean.as_secs_f64() * 1e3
    }

    /// Best-of-N time in milliseconds. The figure binaries report this
    /// rather than the mean: on a shared/oversubscribed machine the
    /// minimum is the standard way to de-noise, and the paper's *shape*
    /// claims (orderings, crossovers) are about the kernel, not the
    /// scheduler jitter of the host. Set `MSPGEMM_REPORT=mean` to use the
    /// paper's literal protocol.
    pub fn ms_min(&self) -> f64 {
        self.min.as_secs_f64() * 1e3
    }

    /// The reported milliseconds, honouring `MSPGEMM_REPORT` (min by
    /// default, `mean` for the paper's protocol).
    pub fn ms_reported(&self) -> f64 {
        match std::env::var("MSPGEMM_REPORT").as_deref() {
            Ok("mean") => self.ms(),
            _ => self.ms_min(),
        }
    }
}

/// The paper's timing protocol: one warm-up run, then repeat until the
/// time budget or the iteration cap is reached; the output is freed after
/// each run (ours drops it naturally).
pub fn measure(graph: &BenchGraph, config: &Config, opts: &HarnessOptions) -> Sample {
    let a = &graph.a;
    // warm-up
    let _ = spgemm::<PlusPair>(a, a, a, config)
        .expect("suite graphs are square and self-masked");
    let start = Instant::now();
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut iters = 0usize;
    while iters < opts.max_iters.max(1) && (iters == 0 || start.elapsed() < opts.budget) {
        let (_, stats) = spgemm::<PlusPair>(a, a, a, config).unwrap();
        total += stats.elapsed;
        min = min.min(stats.elapsed);
        iters += 1;
    }
    Sample { mean: total / iters as u32, min, iters }
}

/// Fig. 10 / Fig. 13 aggregation: for each graph, find the best (lowest)
/// time across all configurations, then report per configuration the
/// percentage of graphs on which it lands within `slack` (10 % in the
/// paper) of that best.
///
/// `times[cfg][graph]` in milliseconds; returns one percentage per config.
pub fn pct_within_of_best(times: &[Vec<f64>], slack: f64) -> Vec<f64> {
    assert!(!times.is_empty());
    let n_graphs = times[0].len();
    assert!(times.iter().all(|row| row.len() == n_graphs), "ragged time matrix");
    let mut best = vec![f64::INFINITY; n_graphs];
    for row in times {
        for (g, &t) in row.iter().enumerate() {
            if t < best[g] {
                best[g] = t;
            }
        }
    }
    times
        .iter()
        .map(|row| {
            let within = row
                .iter()
                .zip(&best)
                .filter(|&(&t, &b)| t <= b * (1.0 + slack))
                .count();
            100.0 * within as f64 / n_graphs as f64
        })
        .collect()
}

/// Write a CSV file under `results/`, creating the directory if needed.
/// Returns the path written. Used by every figure binary so downstream
/// plotting is trivial.
///
/// Alongside each `<name>` CSV this also writes a machine-readable
/// `BENCH_<stem>.json` twin (schema `mspgemm.bench/1`): same columns and
/// rows, plus the `MSPGEMM_*` environment the sweep ran under, so results
/// can be compared across runs without re-parsing CSV or guessing knobs.
/// `mspgemm check-metrics --file results/BENCH_<stem>.json` validates it.
pub fn write_csv(
    name: &str,
    header: &str,
    rows: &[String],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    f.flush()?;
    let stem = name.strip_suffix(".csv").unwrap_or(name);
    std::fs::write(dir.join(format!("BENCH_{stem}.json")), bench_json(stem, header, rows))?;
    Ok(path)
}

/// One CSV cell as a JSON value: numbers stay numbers, everything else
/// becomes a (minimally escaped) string.
fn json_cell(cell: &str) -> String {
    let cell = cell.trim();
    if let Ok(n) = cell.parse::<f64>() {
        if n.is_finite() {
            return cell.to_string();
        }
    }
    let escaped: String = cell
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Render the `mspgemm.bench/1` document for one CSV table.
fn bench_json(stem: &str, header: &str, rows: &[String]) -> String {
    let columns: Vec<&str> = header.split(',').collect();
    let mut s = format!("{{\"schema\":\"mspgemm.bench/1\",\"name\":{}", json_cell(stem));
    s.push_str(",\"columns\":[");
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // column names are labels even when numeric-looking
        s.push_str(&format!("\"{}\"", c.trim()));
    }
    s.push_str("],\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        // the figure binaries emit plain comma-separated rows (no quoted
        // commas), so a naive split mirrors the CSV exactly
        for (j, cell) in row.split(',').enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&json_cell(cell));
        }
        s.push(']');
    }
    s.push_str("],\"env\":{");
    let opts = HarnessOptions::from_env();
    s.push_str(&format!(
        "\"scale\":{},\"threads\":{},\"budget_ms\":{},\"max_iters\":{},\"report\":\"{}\"",
        opts.scale,
        opts.threads,
        opts.budget.as_millis(),
        opts.max_iters,
        match std::env::var("MSPGEMM_REPORT").as_deref() {
            Ok("mean") => "mean",
            _ => "min",
        }
    ));
    s.push_str("}}");
    s
}

/// Tile-count grid for the Fig. 10/11 sweeps. The paper sweeps 64…32768
/// with 64 threads; the grid adapts to the actual thread count so the
/// "tiles ≈ threads" and "tiles ≫ threads" regimes are both covered on
/// any machine.
pub fn tile_grid(threads: usize) -> Vec<usize> {
    let p = threads.max(1);
    let mut grid: Vec<usize> = vec![p, 4 * p, 16 * p, 64 * p, 256 * p, 1024 * p, 4096 * p];
    grid.dedup();
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_within_of_best_basics() {
        // 2 configs, 3 graphs
        let times = vec![
            vec![100.0, 100.0, 100.0], // config 0: best everywhere
            vec![105.0, 150.0, 109.0], // config 1: within 10% on graphs 0, 2
        ];
        let pct = pct_within_of_best(&times, 0.10);
        assert_eq!(pct[0], 100.0);
        assert!((pct[1] - 66.666).abs() < 0.1, "{pct:?}");
    }

    #[test]
    fn pct_handles_ties() {
        let times = vec![vec![50.0], vec![50.0]];
        let pct = pct_within_of_best(&times, 0.10);
        assert_eq!(pct, vec![100.0, 100.0]);
    }

    #[test]
    fn tile_grid_spans_regimes() {
        let g = tile_grid(64);
        assert_eq!(g[0], 64);
        assert!(g.contains(&(64 * 256)));
        let g2 = tile_grid(2);
        assert_eq!(g2[0], 2);
        assert!(*g2.last().unwrap() >= 4096);
    }

    #[test]
    fn measure_runs_and_reports() {
        let opts = HarnessOptions {
            scale: 0.02,
            threads: 2,
            budget: Duration::from_millis(50),
            max_iters: 5,
        };
        let spec = suite_specs()[6]; // GAP-road, small
        let g = BenchGraph::generate(&spec, &opts);
        let cfg = Config::builder().n_threads(2).n_tiles(8).build();
        let s = measure(&g, &cfg, &opts);
        assert!(s.iters >= 1 && s.iters <= 5);
        assert!(s.min <= s.mean);
        assert!(s.ms() > 0.0);
    }

    #[test]
    fn csv_twin_is_valid_bench_json() {
        let text = bench_json(
            "test_twin_tmp",
            "graph,tiles,ms",
            &["er \"dense\",64,1.25".to_string(), "road,128,0.5".to_string()],
        );
        let doc = mspgemm_rt::json::parse(&text).expect("twin must be valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("mspgemm.bench/1"));
        assert_eq!(doc.get("name").unwrap().as_str(), Some("test_twin_tmp"));
        let cols = doc.get("columns").unwrap().as_arr().unwrap();
        assert_eq!(cols.len(), 3);
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        let first = rows[0].as_arr().unwrap();
        assert_eq!(first[0].as_str(), Some("er \"dense\""), "strings survive escaping");
        assert_eq!(first[1].as_num(), Some(64.0), "numeric cells stay numbers");
        assert_eq!(first[2].as_num(), Some(1.25));
        assert!(doc.get("env").unwrap().get("budget_ms").unwrap().as_num().is_some());
    }

    #[test]
    fn env_parsing_defaults() {
        std::env::remove_var("MSPGEMM_NO_SUCH_VAR");
        assert_eq!(env_or("MSPGEMM_NO_SUCH_VAR", 7u32), 7);
    }
}
