//! Every harness binary rejects a bad command line — an unknown or
//! repeated flag, a value flag without a value or with one that does
//! not parse, a stray argument, and `--resume` without `--checkpoint` —
//! with exit status 2 before any run starts.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args` in a temporary directory and returns its exit
/// code and stderr. A binary still running after the deadline accepted
/// the command line and started a run: it is killed and the test fails.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("lkas-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn harness binary");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if started.elapsed() > Duration::from_secs(5) {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{bin} {args:?} was still running after 5 s: it started a run");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    (status.code(), stderr)
}

fn assert_rejected(bin: &str, cases: &[(&[&str], &str)]) {
    for (args, needle) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?} must exit 2; stderr:\n{stderr}");
        assert!(stderr.contains(needle), "{bin} {args:?}: `{needle}` not in stderr:\n{stderr}");
    }
}

#[test]
fn robustness_campaign_rejects_bad_command_lines() {
    assert_rejected(
        env!("CARGO_BIN_EXE_robustness_campaign"),
        &[
            (&["--quik"], "unknown flag `--quik`"),
            (&["--shrad", "0/2"], "unknown flag `--shrad`"),
            (&["--quick", "--seed", "abc"], "bad --seed `abc`"),
            (&["--quick", "--seed"], "`--seed` needs a value"),
            (&["--threads", "--quick"], "`--threads` needs a value"),
            (&["--quick", "--resume"], "--resume needs --checkpoint"),
            (&["--quick", "--shard", "2/2"], "out of range"),
            (&["merge", "a.json", "--out"], "`--out` needs a value"),
            (&["merge", "--bogus", "a.json"], "unknown flag `--bogus`"),
            (&["drift", "--quik"], "unknown flag `--quik`"),
            (&["drift", "--quick", "--seed", "abc"], "bad --seed `abc`"),
            (&["drift", "--quick", "--epsilon"], "`--epsilon` needs a value"),
            (&["drift", "--quick", "--tile-threads", "many"], "bad --tile-threads `many`"),
            (&["drift", "--quick", "--resume"], "unknown flag `--resume`"),
        ],
    );
}

#[test]
fn table3_characterization_rejects_bad_command_lines() {
    assert_rejected(
        env!("CARGO_BIN_EXE_table3_characterization"),
        &[
            (&["--quik"], "unknown flag `--quik`"),
            (&["--quick", "--shrad", "0/2"], "unknown flag `--shrad`"),
            (&["--quick", "--threads", "abc"], "bad --threads `abc`"),
            (&["--quick", "--threads"], "`--threads` needs a value"),
            (&["--quick", "--resume"], "--resume needs --checkpoint"),
            (&["merge", "--out", "x.json", "a.json"], "unknown flag `--out`"),
        ],
    );
}

#[test]
fn every_other_harness_rejects_an_unknown_flag_and_a_bad_value() {
    assert_rejected(
        env!("CARGO_BIN_EXE_fig6_static"),
        &[
            (&["--oracel"], "unknown flag `--oracel`"),
            (&["--oracle", "--threads", "abc"], "bad --threads `abc`"),
        ],
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_fig8_dynamic"),
        &[
            (&["--oracle", "--seed", "3"], "unknown flag `--seed`"),
            (&["--oracle", "--seeds", "many"], "bad --seeds `many`"),
        ],
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_isp_throughput"),
        &[
            (&["check", "--baseline", "b.json", "--iter", "15"], "unknown flag `--iter`"),
            (&["--iters", "abc"], "bad --iters `abc`"),
        ],
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_kernel_equivalence"),
        &[
            (&["--frame", "5"], "unknown flag `--frame`"),
            (&["--frames", "abc"], "bad --frames `abc`"),
        ],
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_table4_classifiers"),
        &[(&["--quik"], "unknown flag `--quik`"), (&["--quick", "5"], "unexpected argument `5`")],
    );
    for ablation in [env!("CARGO_BIN_EXE_ablation_isp"), env!("CARGO_BIN_EXE_ablation_invocation")]
    {
        assert_rejected(
            ablation,
            &[
                (&["--half-rez"], "unknown flag `--half-rez`"),
                (&["--half-res", "2"], "unexpected argument `2`"),
            ],
        );
    }
    assert_rejected(
        env!("CARGO_BIN_EXE_fleetd"),
        &[
            (&["--wokers", "1"], "unknown flag `--wokers`"),
            (&["--workers", "abc"], "bad --workers `abc`"),
        ],
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_fleetctl"),
        &[
            (&["status", "--adr", "127.0.0.1:1"], "unknown flag `--adr`"),
            (&["cancel", "--addr", "127.0.0.1:1", "--job", "abc"], "bad --job `abc`"),
        ],
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_telemetry_report"),
        &[
            (&["tail", "--lst", "2", "s.jsonl"], "unknown flag `--lst`"),
            (&["tail", "--last", "abc", "s.jsonl"], "bad --last `abc`"),
            (&["tail", "--last", "1", "--last", "3", "s.jsonl"], "`--last` given twice"),
        ],
    );
}
