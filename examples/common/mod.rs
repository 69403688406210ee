//! Command-line, timing and JSON plumbing shared by the benchmark
//! examples (`mod common;` in each).

/// `--smoke` and the `--bench-json PATH` value of the command line.
pub fn bench_args() -> (bool, Option<String>) {
    let args: Vec<String> = std::env::args().collect();
    let path = args.iter().position(|a| a == "--bench-json");
    let path = path.map(|i| args.get(i + 1).expect("--bench-json needs a PATH").clone());
    (args.iter().any(|a| a == "--smoke"), path)
}

/// `run`'s result and its wall-clock seconds.
pub fn timed<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let result = run();
    (result, t0.elapsed().as_secs_f64())
}

/// Writes `fields` (values already JSON) and the optional `results`
/// rows to `path` as one JSON object, a field per line (no serde in-tree).
pub fn write_bench_json(path: &str, fields: &[(&str, String)], results: Option<&[String]>) {
    let mut lines: Vec<_> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    lines.extend(results.map(|rows| format!("  \"results\": [\n{}\n  ]", rows.join(",\n"))));
    std::fs::write(path, format!("{{\n{}\n}}\n", lines.join(",\n"))).expect("write bench json");
}
