//! `ctserve` — the cachetime simulation server.
//!
//! ```text
//! ctserve [--addr 127.0.0.1:8080] [--workers N] [--budget-mb MB] [--port-file PATH]
//!         [--max-queue N] [--max-inflight-recordings N] [--request-deadline-ms MS]
//!         [--data-dir DIR] [--disk-budget-mb MB]
//!         [--peers HOST:P1,HOST:P2,...] [--replication N]
//! ```
//!
//! `--workers 0` (the default) sizes the pool via
//! `cachetime::sweep::available_jobs()`. `--port-file` writes the bound
//! port to a file once listening — scripts binding port 0 read it back
//! (written atomically: temp + rename, so a poller never observes a
//! half-written port). `--data-dir` makes the store durable: recordings
//! spill to content-addressed segment files and a restart on the same
//! directory recovers them before accepting traffic (restart-warm).
//! The process runs until `POST /v1/shutdown` (or the process is killed).
//!
//! The three robustness knobs map onto the failure model in DESIGN.md §7:
//! `--max-queue` bounds the connection queue (past it, `503` at accept),
//! `--max-inflight-recordings` bounds concurrent cold simulates (past it,
//! cold simulates get `503 + Retry-After` while warm replays keep
//! serving), and `--request-deadline-ms` is the per-request wall-clock
//! budget (clients lower it via `X-Deadline-Ms`).
//!
//! `--peers` makes this server one member of a self-healing fleet: the
//! comma-separated list is the *full* ring, this server's own `--addr`
//! included (it must appear verbatim, so port 0 is not allowed with
//! `--peers`). At boot — and again on every `POST /v1/rebalance` — the
//! server runs a rebalance pass along the ring: it pulls the segments
//! rendezvous hashing now places on it (within `--replication` copies)
//! from whichever peers hold them, verifying each transfer's checksum
//! before adoption, and drops segments the ring has moved elsewhere once
//! a current owner confirms holding them. Requires `--data-dir`.

use cachetime_serve::client::ClientConfig;
use cachetime_serve::http::limits_for;
use cachetime_serve::{serve_with_app, App, FleetConfig, ServerConfig};
use std::io::Write;
use std::sync::Arc;

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:8080".into(),
        ..Default::default()
    };
    let mut port_file: Option<String> = None;
    let mut peers: Option<Vec<String>> = None;
    let mut replication: usize = 2;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = parse(&value("--workers"), "--workers"),
            "--budget-mb" => {
                let mb: usize = parse(&value("--budget-mb"), "--budget-mb");
                config.store_budget_bytes = mb * 1024 * 1024;
            }
            "--port-file" => port_file = Some(value("--port-file")),
            "--max-queue" => config.max_queue = parse(&value("--max-queue"), "--max-queue"),
            "--max-inflight-recordings" => {
                config.max_inflight_recordings = parse(
                    &value("--max-inflight-recordings"),
                    "--max-inflight-recordings",
                );
            }
            "--request-deadline-ms" => {
                config.request_deadline_ms =
                    parse(&value("--request-deadline-ms"), "--request-deadline-ms");
            }
            "--data-dir" => config.data_dir = Some(value("--data-dir").into()),
            "--disk-budget-mb" => {
                let mb: u64 = parse(&value("--disk-budget-mb"), "--disk-budget-mb");
                config.disk_budget_bytes = mb * 1024 * 1024;
            }
            "--peers" => {
                peers = Some(
                    value("--peers")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--replication" => replication = parse(&value("--replication"), "--replication"),
            "--help" | "-h" => {
                println!(
                    "ctserve — cachetime simulation server\n\n\
                     USAGE: ctserve [--addr HOST:PORT] [--workers N] [--budget-mb MB] [--port-file PATH]\n\
                     \x20              [--max-queue N] [--max-inflight-recordings N] [--request-deadline-ms MS]\n\
                     \x20              [--data-dir DIR] [--disk-budget-mb MB]\n\n\
                     --addr                     bind address (default 127.0.0.1:8080; port 0 = ephemeral)\n\
                     --workers                  worker threads (default 0 = auto-size to the host)\n\
                     --budget-mb                EventTrace store budget in MiB (default 256)\n\
                     --port-file                write the bound port to PATH once listening\n\
                     --max-queue                connection queue bound; past it, shed with 503 (default 1024)\n\
                     --max-inflight-recordings  cold simulates in flight before shedding (default 0 = 2x workers)\n\
                     --request-deadline-ms      per-request wall-clock budget (default 10000)\n\
                     --data-dir                 durable segment store directory (default: memory-only)\n\
                     --disk-budget-mb           durable store budget in MiB (default 0 = unlimited)\n\
                     --peers                    full fleet ring, this --addr included (enables handoff; needs --data-dir)\n\
                     --replication              copies of each segment the fleet keeps (default 2)"
                );
                return;
            }
            other => {
                eprintln!("error: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    // The process-wide registry, not a private one: `GET /v1/metrics`
    // then exposes the core engine's record/replay spans and the sweep
    // executor's counters alongside the server's own families.
    let mut app = App::with_registry(
        config.store_budget_bytes,
        Arc::clone(cachetime_obs::global()),
    )
    .with_limits(limits_for(&config));
    if let Some(dir) = &config.data_dir {
        app = app
            .with_disk(cachetime_disk::DiskConfig {
                root: dir.clone(),
                budget_bytes: config.disk_budget_bytes,
                quarantine_cap_bytes: cachetime_disk::DEFAULT_QUARANTINE_CAP_BYTES,
            })
            .unwrap_or_else(|e| {
                eprintln!("error: failed to open data dir {}: {e}", dir.display());
                std::process::exit(1);
            });
        match app.recover_from_disk() {
            Ok(report) => {
                if report.recovered > 0 || report.quarantined > 0 || report.stale_tmp > 0 {
                    println!(
                        "ctserve recovered {} segment(s) ({} bytes), quarantined {}, removed {} stale temp file(s)",
                        report.recovered, report.bytes, report.quarantined, report.stale_tmp
                    );
                }
            }
            Err(e) => {
                eprintln!("error: recovery scan failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let in_fleet = peers.is_some();
    if let Some(peers) = peers {
        app = app
            .with_fleet(FleetConfig {
                peers,
                self_addr: config.addr.clone(),
                client: ClientConfig {
                    read_timeout: std::time::Duration::from_secs(30),
                    replication,
                    ..ClientConfig::default()
                },
            })
            .unwrap_or_else(|e| {
                eprintln!("error: invalid fleet configuration: {e}");
                std::process::exit(2);
            });
    }
    let handle = match serve_with_app(config, Arc::new(app)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to start server: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.local_addr();
    if let Some(path) = port_file {
        if let Err(e) = write_port_file(&path, addr.port()) {
            eprintln!("error: failed to write port file {path}: {e}");
            handle.shutdown();
            handle.join();
            std::process::exit(1);
        }
    }
    println!("ctserve listening on http://{addr}");
    if in_fleet {
        // Boot rebalance: adopt what the ring now places here from
        // whichever peers are already up. Peers still booting are counted
        // as fetch failures and retried on the next POST /v1/rebalance —
        // a half-up fleet must never fail to start.
        match handle.app().rebalance() {
            Ok(report) => {
                if report.pulled > 0 || report.dropped > 0 || report.rejected > 0 {
                    println!(
                        "ctserve rebalance: pulled {}, dropped {}, rejected {} (fetch failures {})",
                        report.pulled, report.dropped, report.rejected, report.fetch_failures
                    );
                }
            }
            Err(e) => eprintln!("warning: boot rebalance failed: {e}"),
        }
    }
    handle.join();
    println!("ctserve stopped");
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid value {text:?} for {flag}");
        std::process::exit(2);
    })
}

/// Writes the port atomically (temp file + rename): a script polling for
/// the file either sees nothing or the complete port line, never an
/// empty or half-written file. `File::create` + `writeln!` had exactly
/// that race — the file exists (empty) before the port lands in it.
fn write_port_file(path: &str, port: u16) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp-{}", std::process::id());
    {
        let mut f = std::fs::File::create(&tmp)?;
        writeln!(f, "{port}")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}
