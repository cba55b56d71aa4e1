//! `rpc_server` — the TCP front door for `ctgauss-pool`.
//!
//! Binds a `ctgauss-rpc-server` on `--addr` (default `127.0.0.1:0`,
//! i.e. an ephemeral port), serves the standard profile table
//! (0 = sigma 2, 1 = sigma 6.15543, 2 = sigma 1.5, all n = 24), and
//! prints the bound address on stdout as the first line so scripts can
//! connect:
//!
//! ```text
//! # Terminal 1: serve on an ephemeral port with 4 workers.
//! rpc_server --threads 4 --width 4 --seed 7
//! listening 127.0.0.1:44321
//! # Terminal 2: drive it with the harness client (see rpc_smoke).
//! ```
//!
//! The process serves until stdin reads a line saying `quit` (or
//! closes), then drains: new connections and requests are refused with
//! retryable errors, every already-accepted request is waited to an
//! outcome and answered, and the final `DrainReport` is printed. Exit
//! is non-zero if the drain lost an accepted request — the zero-loss
//! guarantee is checked on every shutdown, not just in tests.
//!
//! `--chaos [SPEC]` arms the pool's fault plan (inline spec, else
//! `CTGAUSS_FAULTS`, else the built-in default) so the overload envelope
//! can be exercised against dying and stalling workers.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use ctgauss_pool::{FaultPlan, LaneWidth, Pool, DEFAULT_CHAOS_SPEC, FAULTS_ENV};
use ctgauss_rpc_client::harness::build_standard_profiles;
use ctgauss_rpc_server::{Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: rpc_server [--addr HOST:PORT] [--threads T] [--width 1|2|4|8] [--seed S]\n\
                        [--profiles K] [--conn-inflight N] [--global-inflight N]\n\
                        [--default-deadline MS] [--max-deadline MS] [--chaos [SPEC]]\n\
       serves until stdin reads `quit` (or closes), then drains and reports;\n\
       chaos SPEC as for `FaultPlan::parse`, defaulting to ${FAULTS_ENV} or a built-in plan"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:0");
    let mut threads = 4usize;
    let mut width = LaneWidth::W4;
    let mut seed = 7u64;
    let mut profiles_k = 3usize;
    let mut cfg = ServerConfig::default();
    let mut chaos = false;
    let mut chaos_spec: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().expect("--addr").clone(),
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).expect("--threads"),
            "--width" => {
                width = match it.next().map(String::as_str) {
                    Some("1") => LaneWidth::W1,
                    Some("2") => LaneWidth::W2,
                    Some("4") => LaneWidth::W4,
                    Some("8") => LaneWidth::W8,
                    _ => return usage(),
                }
            }
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).expect("--seed"),
            "--profiles" => {
                profiles_k = it.next().and_then(|v| v.parse().ok()).expect("--profiles");
            }
            "--conn-inflight" => {
                cfg.conn_inflight = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--conn-inflight");
            }
            "--global-inflight" => {
                cfg.global_inflight = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--global-inflight");
            }
            "--default-deadline" => {
                cfg.default_deadline = Duration::from_millis(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--default-deadline"),
                );
            }
            "--max-deadline" => {
                cfg.max_deadline = Duration::from_millis(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--max-deadline"),
                );
            }
            "--chaos" => {
                chaos = true;
                if let Some(next) = it.peek() {
                    if !next.starts_with("--") {
                        chaos_spec = it.next().cloned();
                    }
                }
            }
            _ => return usage(),
        }
    }

    let faults: Option<FaultPlan> = if chaos {
        let plan = match &chaos_spec {
            Some(spec) => match FaultPlan::parse(spec) {
                Ok(plan) => plan,
                Err(error) => {
                    eprintln!("rpc_server: --chaos spec: {error}");
                    return ExitCode::from(2);
                }
            },
            None => match FaultPlan::from_env() {
                Ok(Some(plan)) => plan,
                Ok(None) => {
                    FaultPlan::parse(DEFAULT_CHAOS_SPEC).expect("built-in chaos spec parses")
                }
                Err(error) => {
                    eprintln!("rpc_server: {FAULTS_ENV}: {error}");
                    return ExitCode::from(2);
                }
            },
        };
        // Arm cache-load faults before the kernels are built, so the
        // fallback-to-direct-synthesis path is what actually serves.
        plan.arm_cache_load_failures();
        eprintln!(
            "rpc_server: chaos armed ({} worker fault(s), {} cache-load failure(s))",
            plan.worker_faults().len(),
            plan.cache_load_failures()
        );
        Some(plan)
    } else {
        None
    };

    let shared = build_standard_profiles(profiles_k);
    let mut builder = Pool::builder()
        .threads(threads)
        .width(width)
        .queue_capacity(1024)
        .seed_u64(seed);
    if let Some(plan) = &faults {
        builder = builder.faults(plan.clone());
    }
    let profile_ids: Vec<_> = shared
        .iter()
        .map(|s| builder.shared_profile(Arc::clone(s)))
        .collect();
    let pool = Arc::new(builder.spawn());

    let server = match Server::bind(addr.as_str(), pool, profile_ids, cfg) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("rpc_server: bind {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    // First stdout line is the contract with scripts: the bound address.
    println!("listening {}", server.local_addr());
    eprintln!(
        "rpc_server: serving {threads} worker(s), width {width:?}, seed {seed}; \
         send `quit` on stdin to drain"
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "quit" | "drain" | "exit" => break,
            "" => {}
            other => eprintln!("rpc_server: unknown command {other:?} (try `quit`)"),
        }
    }

    let report = server.shutdown();
    eprintln!(
        "rpc_server: drained: accepted={} responses={} pool_errors={} \
         deadline_expired={} connections={}",
        report.accepted,
        report.responses,
        report.pool_errors,
        report.deadline_expired,
        report.connections
    );
    if report.lossless() {
        println!("drain lossless");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rpc_server: DRAIN LOST REQUESTS: accepted={} resolved={}",
            report.accepted, report.resolved
        );
        ExitCode::FAILURE
    }
}
