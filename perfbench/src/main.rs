//! The repository benchmark: three closed-loop tenant workloads driven
//! through the crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload enclave_rpc|tenant_lifecycle|smp_tenants \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports per-layer
//! metrics. Each metric is printed with its unit and clock; the last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! operation or output check makes the exit code non-zero.

mod enclave_rpc;
mod load;
mod metrics;
mod rng;
mod smp_tenants;
mod tenant_lifecycle;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tyche_bench::json::Json;
use tyche_bench::manifest::Manifest;

use crate::load::{closed_loop, LoopStats, Window, Workload};
use crate::metrics::{Clock, Metric};
use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["enclave_rpc", "tenant_lifecycle", "smp_tenants"];

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Tiny populations, for checking the benchmark's own logic.
    tiny: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 45.0,
        trace: false,
        tiny: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    tracer: Tracer,
}

/// Runs `setup` `n` times, timing each, and keeps the last state.
/// Earlier states are dropped before the next is built.
fn timed_setups<S>(
    n: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let s = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    last.map(|s| (s, times))
        .ok_or_else(|| "no set-up ran".into())
}

/// Checks that on a single-threaded workload the modeled cycles of the
/// traced chunks split exactly into hypercall leaves plus the rest.
fn accounting_check(ls: &mut LoopStats, w: &impl Workload, tr: &Tracer) {
    let leaves: u64 = w.leaf_cycles().values().sum();
    let split = leaves + tr.outside_cycles;
    ls.check(
        split == ls.traced.cycles,
        &format!(
            "cycle accounting: leaves {leaves} + outside {} != charged {}",
            tr.outside_cycles, ls.traced.cycles
        ),
    );
}

fn run(args: &Args) -> Result<Outcome, String> {
    let tiny = args.tiny;
    let win = |warmup: u64| Window {
        seconds: args.seconds,
        min_samples: if tiny { 2 } else { 1_000 },
        warmup_ops: if tiny { 5 } else { warmup },
        traced: args.trace,
    };
    // Set-up is timed several times per run and reported as a median;
    // the traced run does not report it and builds once.
    let repeats = |n: usize| if args.trace || tiny { 1 } else { n };
    let base = Instant::now();
    let mut tr = Tracer::new(base);
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (ls, setup_s, leaves, window) = match args.workload.as_str() {
        "enclave_rpc" => {
            let inputs = enclave_rpc::inputs(args.seed);
            let (mut st, setup_s) = timed_setups(repeats(41), || enclave_rpc::setup(&inputs))?;
            let caps = st.live_caps();
            let before = st.monitor_stats();
            let win = win(500);
            let mut ls = closed_loop(&mut st, &mut tr, &win)?;
            if args.trace {
                accounting_check(&mut ls, &st, &tr);
            }
            for (ok, what) in st.final_checks(&caps) {
                ls.check(ok, &what);
            }
            let (accepted, violations) = st.channel_counts();
            counts.insert("fleet.accepted", accepted as f64);
            counts.insert("fleet.violations", violations as f64);
            metrics::monitor_counts(&mut counts, before, st.monitor_stats());
            (ls, setup_s, st.leaf_cycles().clone(), win)
        }
        "tenant_lifecycle" => {
            let size = if tiny {
                tenant_lifecycle::TINY
            } else {
                tenant_lifecycle::FULL
            };
            let inputs = tenant_lifecycle::inputs(args.seed, size);
            let (mut st, setup_s) = timed_setups(repeats(7), || tenant_lifecycle::setup(&inputs))?;
            let population = st.population();
            let before = st.monitor_stats();
            let win = win(200);
            let mut ls = closed_loop(&mut st, &mut tr, &win)?;
            if args.trace {
                accounting_check(&mut ls, &st, &tr);
            }
            for (ok, what) in st.final_checks(population) {
                ls.check(ok, &what);
            }
            metrics::monitor_counts(&mut counts, before, st.monitor_stats());
            (ls, setup_s, st.leaf_cycles().clone(), win)
        }
        _ => {
            let size = if tiny {
                smp_tenants::TINY
            } else {
                smp_tenants::FULL
            };
            let inputs = smp_tenants::inputs(args.seed, size);
            let (st, setup_s) = timed_setups(repeats(61), || smp_tenants::setup(&inputs))?;
            let win = win(100);
            let (run, checks) = st.run(&win, base)?;
            let mut ls = run.stats;
            for (ok, what) in checks {
                ls.check(ok, &what);
            }
            counts = run.counts;
            tr = run.tracer;
            (ls, setup_s, run.leaves, win)
        }
    };
    let metrics = if args.trace {
        metrics::per_layer(&ls, &tr, &counts, &leaves)?
    } else {
        println!(
            "kept {} sub-windows of {} ms, mean start {:.3} of the window",
            ls.selection.kept.len(),
            load::SUB.as_millis(),
            ls.selection.mean_position(&window)
        );
        metrics::end_to_end(&ls, &window, &setup_s)?
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    Ok(Outcome {
        attempted: ls.attempted,
        failed: ls.failed,
        errors: ls.errors,
        metrics,
        tracer: tr,
    })
}

fn num(v: f64) -> Json {
    Json::Num(format!("{v}"))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(o.failed == 0)),
        ("attempted".into(), Json::Num(o.attempted.to_string())),
        ("failed".into(), Json::Num(o.failed.to_string())),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_compact()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let config = format!(
        "{} seconds={} trace={} tiny={}",
        args.workload, args.seconds, args.trace, args.tiny
    );
    let manifest = Manifest::capture(&root, "perfbench", vec![args.seed], &config, 1, Vec::new());
    let host_cores = manifest.host.cores;
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
            return ExitCode::from(1);
        }
    };
    let fail_ratio = metrics::fail_ratio(outcome.attempted, outcome.failed).unwrap_or(1.0);
    println!(
        "workload {} seed {} trace {} host_cores {host_cores}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("manifest {}", manifest.to_json().to_compact());
    for m in &outcome.metrics {
        println!(
            "metric {} = {} {} ({}, {} is better)",
            m.name,
            m.value,
            m.unit,
            m.clock.label(),
            m.better
        );
    }
    println!(
        "metric fail_ratio = {fail_ratio} ({} of {} attempted, {})",
        outcome.failed,
        outcome.attempted,
        Clock::None.label()
    );
    for e in &outcome.errors {
        println!("failure {e}");
    }
    let line = result_line(&outcome);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"manifest\":{},\"fail_ratio\":{},\"result\":{line}}}\n",
        manifest.to_json().to_compact(),
        num(fail_ratio).to_compact()
    );
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(out_dir().join(format!("{stem}.json")), record))
        .and_then(|()| {
            if args.trace {
                let header = format!(
                    "{} git={} dirty={}",
                    stem, manifest.git_hash, manifest.git_dirty
                );
                outcome
                    .tracer
                    .write(&out_dir().join(format!("{stem}.spans")), &header)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: writing results: {e}");
        return ExitCode::from(1);
    }
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Outcome {
        let args = Args {
            workload: workload.into(),
            seed: 11,
            seconds: 0.75,
            trace,
            tiny: true,
        };
        run(&args).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"))
    }

    fn names(o: &Outcome) -> Vec<String> {
        o.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn tiny_runs_emit_every_named_metric() {
        let e2e: Vec<String> = metrics::END_TO_END
            .iter()
            .map(|m| m.0.to_string())
            .collect();
        let layer: Vec<String> = metrics::per_layer_spec().into_iter().map(|m| m.0).collect();
        for w in WORKLOADS {
            let o = tiny(w, false);
            assert_eq!(o.failed, 0, "{w}: {:?}", o.errors);
            assert_eq!(names(&o), e2e, "{w}");
            assert!(
                o.metrics.iter().all(|m| m.value > 0.0),
                "{w}: an end-to-end metric read 0"
            );
            let o = tiny(w, true);
            assert_eq!(o.failed, 0, "{w} traced: {:?}", o.errors);
            assert_eq!(names(&o), layer, "{w} traced");
        }
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload enclave_rpc --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload smp_tenants --trace 2").is_err());
        assert!(parse("--workload smp_tenants --seconds 0").is_err());
        assert!(parse("--workload smp_tenants --seed").is_err());
    }

    /// `BENCHMARK.json` lists exactly the metrics the program emits.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let spec = tyche_bench::json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = metrics::END_TO_END
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.into()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<_> = metrics::per_layer_spec()
            .into_iter()
            .map(|m| (m.0, m.1.into(), m.2.into()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        // `smp_tenants` runs on demand but is not gated (see README).
        assert_eq!(workloads, ["enclave_rpc", "tenant_lifecycle"]);
        assert!(workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())));
    }
}
