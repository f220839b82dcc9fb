//! Command-line surface of the `mapcomp` binary: the serve-engine option,
//! the help text and the durability contract of a killed server.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use std::io::{BufRead as _, BufReader};
use std::process::{Child, Command, Output, Stdio};

use mapping_composition::catalog::SessionConfig;
use mapping_composition::compose::Registry;
use mapping_composition::service::{
    sidecar_path, Client, LocalService, MapcompService as _, Request, Response,
};

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

/// Spawn `mapcomp serve` on a loopback port with `extra` options and
/// connect a client once it prints its listening line.
fn serve(catalog: &std::path::Path, extra: &[&str]) -> (Child, Client) {
    let mut child = mapcomp()
        .args(["serve", "--catalog"])
        .arg(catalog)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("listening on ").expect("the listening line").to_string();
    (child, Client::connect(&addr).unwrap())
}

#[test]
fn serve_accepts_engine_event_as_a_no_op() {
    let catalog = temp_catalog("event");
    let (mut child, client) = serve(&catalog, &["--engine", "event"]);
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

/// The durability contract of `docs/PERSISTENCE.md`: every acknowledged
/// write survives a crash of the serving process. The server is killed with
/// SIGKILL — no shutdown request, no chance to flush — and reopening the
/// same file must show the edit at its new version and the migration
/// session's rows.
#[test]
fn acknowledged_writes_survive_sigkill_of_the_server() {
    let catalog = temp_catalog("sigkill");
    let (mut child, client) = serve(&catalog, &[]);
    let add = |text: &str| match client.call(Request::AddDocument { text: text.into() }) {
        Ok(Response::Added { .. }) => {}
        other => panic!("add was not acknowledged: {other:?}"),
    };
    add("schema v0 { R0/1; } schema v1 { R1/1; } schema v2 { R2/1; }
         mapping m0 : v0 -> v1 { R0 <= R1; } mapping m1 : v1 -> v2 { R1 <= R2; }");
    add("mapping m1 : v1 -> v2 { project[0](R1) <= R2; }");
    let migrate = |updates: &[&str]| Request::MigrateDelta {
        from: "v0".into(),
        to: "v2".into(),
        updates: updates.iter().map(std::string::ToString::to_string).collect(),
    };
    let Ok(Response::Migrated(live)) = client.call(migrate(&["+R0(1)", "+R0(2)"])) else {
        panic!("migrate-delta was not acknowledged");
    };
    child.kill().unwrap();
    child.wait().unwrap();

    let reopened =
        LocalService::open(&catalog, Registry::standard(), SessionConfig::default(), 1, false)
            .unwrap();
    let edited = reopened.session().catalog().mapping("m1").unwrap();
    assert_eq!(edited.version, 2);
    assert_eq!(edited.constraints.to_string().trim(), "project[0](R1) <= R2;");
    let Ok(Response::Migrated(replayed)) = reopened.call(migrate(&[])) else {
        panic!("the migration session did not survive");
    };
    assert_eq!(replayed.source_rows, 2);
    assert_eq!(replayed.target, live.target);
    let _ = std::fs::remove_file(&catalog);
    let _ = std::fs::remove_file(sidecar_path(&catalog));
}
