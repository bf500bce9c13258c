//! `dso-serve`: the resident campaign daemon.
//!
//! Wraps a [`Session`] (memo cache + optional `DSO_STORE` persistence)
//! behind the JSONL job protocol, with a bounded admission queue, two
//! request priorities, per-request deadlines, and cooperative
//! cancellation. See DESIGN.md §11 for the protocol.
//!
//! Transports:
//!
//! ```text
//! cargo run --release --example dso_serve                     # stdin/stdout
//! cargo run --release --example dso_serve -- --socket /tmp/dso.sock
//! ```
//!
//! Tuning comes from the `DSO_SERVE_*` environment knobs (workers, queue
//! capacity, frame limit, default deadline) plus the usual `DSO_THREADS`
//! / `DSO_STORE` session settings; see the README's environment table.
//!
//! A quick smoke test over stdin/stdout:
//!
//! ```text
//! printf '%s\n' \
//!   '{"id":"b1","kind":"border","defect":{"site":"O3","side":"true"}}' \
//!   '{"control":"shutdown"}' \
//!   | cargo run --release --example dso_serve
//! ```

use dram_stress_opt::service::{serve_connection, Daemon, ServeConfig};
use dram_stress_opt::Session;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut socket: Option<std::path::PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--socket needs a path");
                    std::process::exit(2);
                });
                socket = Some(path.into());
            }
            "--help" | "-h" => {
                println!("usage: dso_serve [--socket PATH]");
                println!("JSONL job protocol on stdin/stdout, or on a Unix socket.");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let config = ServeConfig::from_env();
    eprintln!(
        "dso-serve: {} worker(s), queue {}, frame limit {} bytes, default deadline {}",
        config.workers,
        config.queue_capacity,
        config.max_frame_bytes,
        if config.default_deadline_ms > 0.0 {
            format!("{} ms", config.default_deadline_ms)
        } else {
            "none".to_string()
        }
    );
    let daemon = Daemon::start(Session::from_env(), config);
    let handle = daemon.handle();

    let served = match socket {
        #[cfg(unix)]
        Some(path) => {
            eprintln!("dso-serve: listening on {}", path.display());
            dram_stress_opt::service::serve_unix(&handle, &path)
        }
        #[cfg(not(unix))]
        Some(_) => {
            eprintln!("--socket requires a Unix platform; use stdin/stdout here");
            std::process::exit(2);
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_connection(&handle, stdin.lock(), stdout)
        }
    };
    if let Err(e) = served {
        eprintln!("dso-serve: transport error: {e}");
        std::process::exit(1);
    }

    let stats = daemon.shutdown();
    eprintln!(
        "dso-serve: {} accepted, {} completed, {} cancelled, {} deadline-exceeded, \
         {} rejected, {} failed",
        stats.accepted,
        stats.completed,
        stats.cancelled,
        stats.deadline_exceeded,
        stats.rejected,
        stats.failed
    );
}
