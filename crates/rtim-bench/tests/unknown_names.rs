//! The experiment binaries refuse unknown dataset and scale names with
//! exit status 2 and a message naming the flag and the value, instead of
//! silently running some other experiment.

use std::process::Command;

#[test]
fn unknown_dataset_and_scale_names_exit_2() {
    let cases = [
        ("--dataset", "twiter"),
        ("--datasets", "reddit,bogus"),
        ("--scale", "huge"),
    ];
    for (flag, value) in cases {
        // Tiny overrides keep a wrongly accepted run short.
        let out = Command::new(env!("CARGO_BIN_EXE_fig6_checkpoints_vs_beta"))
            .args([flag, value, "--actions", "300", "--users", "50"])
            .args(["--window", "60", "--slide", "20", "--max-slides", "1"])
            .output()
            .expect("run fig6_checkpoints_vs_beta");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        let bad = value.rsplit(',').next().unwrap();
        let message = format!("invalid value `{bad}` for `{flag}`");
        assert!(stderr.contains(&message), "{flag} {value}: {stderr}");
    }
}
