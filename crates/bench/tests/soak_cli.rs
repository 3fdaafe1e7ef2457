//! The `soak` command line refuses, with its usage text and exit code
//! 2, every run that would test nothing or silently drop an option,
//! before it starts any server.

use std::process::Command;

fn soak(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(args)
        .output()
        .expect("run soak");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (
        out.status.code().expect("soak exited"),
        text(out.stdout),
        text(out.stderr),
    )
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    for args in [
        &[][..],
        &["bogus"],
        &["--help"],
        &["serve", "--rounds", "0"],
        &["chaos", "--smoke"],
        &["store", "--seconds", "8"],
        &["router", "--smoke", "--seconds", "8"],
    ] {
        let (code, stdout, stderr) = soak(args);
        assert_eq!(code, 2, "{args:?} exited {code}");
        assert!(stdout.is_empty(), "{args:?} ran: {stdout}");
        assert!(
            stderr.contains("usage: soak <scenario> [--rounds R]")
                && stderr.contains("interleavings are not fixed"),
            "{args:?}: {stderr}"
        );
    }
}
