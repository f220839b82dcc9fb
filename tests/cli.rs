//! Command-line surface of the `mapcomp` binary: the serve-engine option
//! and the help text.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use std::io::{BufRead as _, BufReader};
use std::process::{Command, Output, Stdio};

use mapping_composition::service::{sidecar_path, Client, Request, Response};

fn mapcomp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mapcomp"))
}

fn temp_catalog(tag: &str) -> std::path::PathBuf {
    let file = std::env::temp_dir().join(format!("mapcomp_cli_{}_{tag}.doc", std::process::id()));
    let _ = std::fs::remove_file(&file);
    let _ = std::fs::remove_file(sidecar_path(&file));
    file
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn serve_refuses_the_removed_threaded_engine() {
    let catalog = temp_catalog("threaded");
    let output = mapcomp()
        .args(["serve", "--catalog"])
        .arg(&catalog)
        .args(["--addr", "127.0.0.1:0", "--engine", "threaded"])
        .output()
        .unwrap();
    assert!(!output.status.success(), "`--engine threaded` must be refused");
    let message = stderr(&output);
    assert!(message.contains("threaded engine has been removed"), "unexpected error: {message}");
    assert!(!catalog.exists(), "a refused serve must not create the catalog");
}

#[test]
fn serve_accepts_engine_event_as_a_no_op() {
    let catalog = temp_catalog("event");
    let mut child = mapcomp()
        .args(["serve", "--catalog"])
        .arg(&catalog)
        .args(["--addr", "127.0.0.1:0", "--engine", "event"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("listening on ").expect("the listening line").to_string();
    let client = Client::connect(&addr).unwrap();
    assert_eq!(client.call(Request::Ping).unwrap(), Response::Pong);
    assert_eq!(client.call(Request::Shutdown).unwrap(), Response::ShuttingDown);
    assert!(child.wait().unwrap().success());
    let _ = std::fs::remove_file(&catalog);
    let _ = std::fs::remove_file(sidecar_path(&catalog));
}

#[test]
fn help_names_neither_removed_option() {
    let output = mapcomp().arg("--help").output().unwrap();
    assert!(output.status.success());
    let help = stderr(&output);
    assert!(help.contains("mapcomp serve"), "unexpected help text: {help}");
    assert!(!help.contains("--persist"), "help still offers --persist: {help}");
    assert!(!help.contains("threaded"), "help still offers the threaded engine: {help}");
}
