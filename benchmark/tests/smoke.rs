//! Drives the built executable at the `--smoke` sizes: every workload
//! end to end in the driver's form, then all of them traced twice. All
//! correctness checks are on at these sizes; a failed one is a non-zero
//! exit.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["fractal_ranks", "ice_cycle", "service_front", "sim_notify"];
const END_TO_END: [&str; 10] = [
    "setup_s",
    "balance_s",
    "balance_old_s",
    "cycle_s",
    "ghost_s",
    "nodes_s",
    "commit_s",
    "commit_p90_s",
    "query_ns",
    "peak_rss_mb",
];

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark executable starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn every_workload_prints_the_drivers_result_line() {
    for w in WORKLOADS {
        let args = [
            "--workload",
            w,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ];
        let out = benchmark(&args);
        let text = stdout(&out);
        assert!(
            out.status.success(),
            "{w} failed:\n{text}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let last = text.lines().last().expect("output");
        forestbal::trace::validate_json(last).expect("the last line is JSON");
        assert!(
            last.starts_with(r#"{"correct":true,"attempted":"#),
            "{last}"
        );
        assert!(last.contains(r#""failed":0,"metrics":{"#), "{last}");
        for m in END_TO_END {
            assert!(
                last.contains(&format!(r#""{m}":{{"value":"#)),
                "{w} lacks {m}: {last}"
            );
        }
        assert!(
            !last.contains("null"),
            "{w} has a metric without a value: {last}"
        );
    }
}

#[test]
fn all_workloads_traced_twice_agree_on_the_exact_counts() {
    let out = benchmark(&["--smoke", "--traced", "--seconds", "1"]);
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("exact counts identical across 2 traced sets"),
        "{text}"
    );
    assert!(text.contains("metric trace.overhead_frac "), "{text}");
    for w in WORKLOADS {
        let path = format!("{}/out/trace-{w}.json", env!("CARGO_MANIFEST_DIR"));
        let trace = std::fs::read_to_string(&path).expect("the span file was written");
        forestbal::trace::validate_json(&trace).expect("chrome trace is JSON");
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
        &["--seconds", "0"],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} printed a result");
    }
}
