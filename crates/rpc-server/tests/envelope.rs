//! The overload-survival envelope, end to end over real sockets: both
//! codecs round-trip through a live server, per-connection quotas and
//! the global admission limiter shed with the right retryable kinds,
//! client deadlines propagate into pre-admission refusals (no sequence
//! number consumed) and post-admission expiries (sequence number
//! consumed, accounted), and a drain under load resolves every accepted
//! request — the zero-loss guarantee checked against the wire, not just
//! the counters.

use std::sync::Arc;
use std::time::Duration;

use ctgauss_core::{CtSampler, SamplerSpec};
use ctgauss_pool::{replay, FaultPlan, LaneWidth, Pool, ProfileId};
use ctgauss_prng::SeedTree;
use ctgauss_rpc_client::{Client, ClientError, ConnectOptions};
use ctgauss_rpc_core::{CodecKind, ErrorKind, RequestBody, ResponseBody};
use ctgauss_rpc_server::{Server, ServerConfig};

const RPC_TIMEOUT: Duration = Duration::from_secs(30);

fn shared_profile() -> Arc<CtSampler> {
    SamplerSpec::new("2", 16).build_shared().expect("profile")
}

struct Fixture {
    server: Server,
    shared: Arc<CtSampler>,
    seed: u64,
    threads: usize,
}

/// Builds a pool + bound server. `queue` is the pool ring capacity;
/// `faults` arms worker chaos for the tests that need a deterministic
/// stall.
fn fixture(
    threads: usize,
    queue: usize,
    seed: u64,
    faults: Option<FaultPlan>,
    cfg: ServerConfig,
) -> Fixture {
    let shared = shared_profile();
    let mut builder = Pool::builder()
        .threads(threads)
        .width(LaneWidth::W1)
        .queue_capacity(queue)
        .seed_u64(seed);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let profile: ProfileId = builder.shared_profile(Arc::clone(&shared));
    let pool = Arc::new(builder.spawn());
    let server = Server::bind("127.0.0.1:0", pool, vec![profile], cfg).expect("bind");
    Fixture {
        server,
        shared,
        seed,
        threads,
    }
}

fn connect(fixture: &Fixture, codec: CodecKind) -> Client {
    Client::connect(
        fixture.server.local_addr(),
        codec,
        &ConnectOptions::default(),
    )
    .expect("connect")
}

/// Offline replay of the server's audit; panics if `samples` is not
/// bit-identical to what `seq` must contain.
fn assert_replays(fixture: &Fixture, client: &mut Client, pairs: &[(u64, Vec<i32>)]) {
    let audit = client.replay_audit(RPC_TIMEOUT).expect("audit");
    let offline = replay(
        &SeedTree::from_u64_seed(fixture.seed),
        std::slice::from_ref(&fixture.shared),
        fixture.threads,
        audit.width().expect("valid width"),
        &audit.trace_entries(),
        &audit.failure_events(),
        &[],
    );
    for (seq, samples) in pairs {
        assert_eq!(
            offline.get(*seq as usize),
            Some(&Some(samples.clone())),
            "seq {seq} does not replay"
        );
    }
}

#[test]
fn both_codecs_round_trip_against_a_live_server() {
    let fixture = fixture(2, 64, 41, None, ServerConfig::default());
    let mut received = Vec::new();
    for codec in [CodecKind::Binary, CodecKind::Json] {
        let mut client = connect(&fixture, codec);
        assert!(!client.ping(RPC_TIMEOUT).expect("ping"), "not draining");
        let health = client.health(RPC_TIMEOUT).expect("health");
        assert!(health.all_alive());
        assert_eq!(health.shards.len(), 2);
        let (seq, samples) = client.sample(0, 16, 0).expect("sample");
        assert_eq!(samples.len(), 16);
        received.push((seq, samples));
        let stats = client.stats(RPC_TIMEOUT).expect("stats");
        let json = ctgauss_telemetry::json::Json::parse(&stats).expect("stats JSON parses");
        assert!(
            json.get("rpc").and_then(|r| r.get("accepted")).is_some(),
            "stats must carry the rpc section"
        );
        assert!(
            json.get("kernel_cache")
                .and_then(|c| c.get("hits"))
                .is_some(),
            "stats must carry the kernel_cache section"
        );
        // The fixture built its profile in this process, so the
        // probability-table stage has run at least once.
        assert!(
            json.get("synthesis")
                .and_then(|s| s.get("prob-tables_runs"))
                .and_then(|n| n.as_f64())
                .is_some_and(|runs| runs >= 1.0),
            "stats must carry the synthesis section"
        );
        assert_eq!(
            json.get("pool")
                .and_then(|p| p.get("health"))
                .and_then(|h| h.as_str()),
            Some("ok"),
            "pool health verdict must be surfaced"
        );
    }
    // Both codecs' draws verify against one audit — same server, same
    // sequence space.
    let mut client = connect(&fixture, CodecKind::Binary);
    let audit = client.replay_audit(RPC_TIMEOUT).expect("audit");
    assert_eq!(audit.submitted, 2);
    assert_eq!(audit.threads, 2);
    assert_replays(&fixture, &mut client, &received);
    assert!(fixture.server.shutdown().lossless());
}

#[test]
fn registry_lifecycle_over_the_wire() {
    let fixture = fixture(2, 64, 47, None, ServerConfig::default());
    let mut client = connect(&fixture, CodecKind::Binary);

    // The boot-time profile is listed at wire index 0.
    let listed = client.profiles(RPC_TIMEOUT).expect("profiles");
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].index, 0);
    assert!(!listed[0].retired);

    // Hot-load a second profile and draw from it immediately.
    let added = client
        .add_profile("1.5", 16, RPC_TIMEOUT)
        .expect("add_profile");
    assert_eq!(added, 1, "wire index follows registration order");
    let (hot_seq, hot_samples) = client.sample(added, 32, 0).expect("sample new profile");
    assert_eq!(hot_samples.len(), 32);

    // Both codecs see the same registry; JSON exercises the other codec
    // path for the new message kinds.
    let mut json_client = connect(&fixture, CodecKind::Json);
    let listed = json_client.profiles(RPC_TIMEOUT).expect("profiles");
    assert_eq!(listed.len(), 2);
    assert_eq!(listed[1].label, "1.5");
    assert_eq!(listed[1].precision, 16);

    // A build refusal is a BadRequest, not a connection error, and
    // mints no registry slot.
    let refused = client.add_profile("not-a-number", 16, RPC_TIMEOUT);
    match refused {
        Err(ClientError::Server(error)) => {
            assert_eq!(error.kind, ErrorKind::BadRequest, "{error:?}");
            assert!(!error.retryable);
        }
        other => panic!("bad sigma must refuse, got {other:?}"),
    }
    assert_eq!(client.profiles(RPC_TIMEOUT).expect("profiles").len(), 2);

    // Retire the hot-loaded profile: new submissions refuse with
    // unknown_profile, the slot stays listed as a tombstone, and the
    // operation is idempotent.
    client
        .retire_profile(added, RPC_TIMEOUT)
        .expect("retire_profile");
    match client.sample(added, 8, 0) {
        Err(ClientError::Server(error)) => {
            assert_eq!(error.kind, ErrorKind::UnknownProfile, "{error:?}");
        }
        other => panic!("retired profile must refuse, got {other:?}"),
    }
    let listed = client.profiles(RPC_TIMEOUT).expect("profiles");
    assert_eq!(listed.len(), 2);
    assert!(listed[1].retired);
    assert!(!listed[0].retired);
    client
        .retire_profile(added, RPC_TIMEOUT)
        .expect("retiring a tombstone is idempotent");

    // An index never minted refuses rather than panicking the server.
    match client.retire_profile(99, RPC_TIMEOUT) {
        Err(ClientError::Server(error)) => {
            assert_eq!(error.kind, ErrorKind::UnknownProfile, "{error:?}");
        }
        other => panic!("unknown index must refuse, got {other:?}"),
    }

    // Every delivered draw replays bit-exactly offline, including the
    // one served by the hot-loaded (now retired) profile — retirement
    // is submission-side only and never disturbs the replay record.
    let (seq, samples) = client.sample(0, 16, 0).expect("sample");
    let audit = client.replay_audit(RPC_TIMEOUT).expect("audit");
    let registered = vec![
        Arc::clone(&fixture.shared),
        SamplerSpec::new("1.5", 16).build_shared().expect("profile"),
    ];
    let offline = replay(
        &SeedTree::from_u64_seed(fixture.seed),
        &registered,
        fixture.threads,
        audit.width().expect("valid width"),
        &audit.trace_entries(),
        &audit.failure_events(),
        &[],
    );
    for (seq, samples) in [(hot_seq, hot_samples), (seq, samples)] {
        assert_eq!(
            offline.get(seq as usize),
            Some(&Some(samples)),
            "seq {seq} does not replay"
        );
    }
    assert!(fixture.server.shutdown().lossless());
}

#[test]
fn per_connection_quota_sheds_with_retryable_errors() {
    let cfg = ServerConfig {
        conn_inflight: 2,
        global_inflight: 256,
        ..ServerConfig::default()
    };
    // One slow worker so admitted requests stay in flight while the
    // over-quota ones are read and refused.
    let fixture = fixture(1, 64, 42, None, cfg);
    let mut client = connect(&fixture, CodecKind::Binary);
    let mut ids = Vec::new();
    for _ in 0..8 {
        ids.push(
            client
                .send(RequestBody::Sample {
                    profile: 0,
                    count: 1 << 18,
                    deadline_ms: 30_000,
                })
                .expect("send"),
        );
    }
    let mut fulfilled = 0;
    let mut shed = 0;
    for _ in 0..8 {
        let response = client
            .recv_timeout(RPC_TIMEOUT)
            .expect("recv")
            .expect("response before timeout");
        assert!(ids.contains(&response.id));
        match response.body {
            ResponseBody::Samples { .. } => fulfilled += 1,
            ResponseBody::Error(error) => {
                assert_eq!(error.kind, ErrorKind::QuotaExceeded, "{error:?}");
                assert!(error.retryable, "quota refusals must invite a retry");
                shed += 1;
            }
            other => panic!("unexpected body {other:?}"),
        }
    }
    assert_eq!(fulfilled, 2, "exactly the quota is admitted");
    assert_eq!(shed, 6);
    // Quota refusals never consumed a sequence number.
    let audit = client.replay_audit(RPC_TIMEOUT).expect("audit");
    assert_eq!(audit.submitted, 2);
    assert!(fixture.server.shutdown().lossless());
}

#[test]
fn global_admission_limiter_sheds_overload() {
    let cfg = ServerConfig {
        conn_inflight: 64,
        global_inflight: 2,
        ..ServerConfig::default()
    };
    let fixture = fixture(1, 64, 43, None, cfg);
    let mut client = connect(&fixture, CodecKind::Binary);
    for _ in 0..8 {
        client
            .send(RequestBody::Sample {
                profile: 0,
                count: 1 << 18,
                deadline_ms: 30_000,
            })
            .expect("send");
    }
    let mut fulfilled = 0;
    let mut shed = 0;
    for _ in 0..8 {
        let response = client
            .recv_timeout(RPC_TIMEOUT)
            .expect("recv")
            .expect("response before timeout");
        match response.body {
            ResponseBody::Samples { .. } => fulfilled += 1,
            ResponseBody::Error(error) => {
                assert_eq!(error.kind, ErrorKind::Overloaded, "{error:?}");
                assert!(error.retryable, "load shedding must invite a retry");
                shed += 1;
            }
            other => panic!("unexpected body {other:?}"),
        }
    }
    assert_eq!(fulfilled, 2, "exactly the admission limit is admitted");
    assert_eq!(shed, 6);
    assert!(fixture.server.shutdown().lossless());
}

#[test]
fn deadline_refusal_before_admission_consumes_no_seq() {
    // Worker 0 sleeps 400ms before its first request, so request 1
    // sits in the 1-slot ring the whole time: a 1ms-deadline submission
    // deterministically times out *before* consuming a sequence number.
    let plan = FaultPlan::new().stall_at_request(0, 0, Duration::from_millis(400));
    let fixture = fixture(1, 1, 44, Some(plan), ServerConfig::default());
    let mut client = connect(&fixture, CodecKind::Binary);
    let first = client
        .send(RequestBody::Sample {
            profile: 0,
            count: 64,
            deadline_ms: 30_000,
        })
        .expect("send");
    let second = client
        .send(RequestBody::Sample {
            profile: 0,
            count: 64,
            deadline_ms: 30_000,
        })
        .expect("send");
    let doomed = client
        .send(RequestBody::Sample {
            profile: 0,
            count: 64,
            deadline_ms: 1,
        })
        .expect("send");
    let mut received = Vec::new();
    let mut refused = false;
    for _ in 0..3 {
        let response = client
            .recv_timeout(RPC_TIMEOUT)
            .expect("recv")
            .expect("response before timeout");
        match response.body {
            ResponseBody::Samples { seq, samples, .. } => {
                assert!(response.id == first || response.id == second);
                received.push((seq, samples));
            }
            ResponseBody::Error(error) => {
                assert_eq!(response.id, doomed);
                assert_eq!(error.kind, ErrorKind::DeadlineExceeded, "{error:?}");
                assert!(error.retryable);
                refused = true;
            }
            other => panic!("unexpected body {other:?}"),
        }
    }
    assert!(refused);
    // The refusal happened before admission: only two seqs exist, and
    // both replay bit-exactly.
    let audit = client.replay_audit(RPC_TIMEOUT).expect("audit");
    assert_eq!(audit.submitted, 2);
    assert_replays(&fixture, &mut client, &received);
    let report = fixture.server.shutdown();
    assert!(report.lossless());
    assert_eq!(report.deadline_expired, 0, "refusal, not expiry");
}

#[test]
fn deadline_expiry_after_admission_is_accounted() {
    // Plenty of ring space: the short-deadline request is *admitted*
    // (consumes a sequence number) and then expires while the stalled
    // worker sleeps through its budget. It goes first so the responder
    // is waiting on it — a result that is already ready at wait time is
    // delivered even past its deadline, which is the kinder behavior.
    let plan = FaultPlan::new().stall_at_request(0, 0, Duration::from_millis(400));
    let fixture = fixture(1, 64, 45, Some(plan), ServerConfig::default());
    let mut client = connect(&fixture, CodecKind::Binary);
    let doomed = client
        .send(RequestBody::Sample {
            profile: 0,
            count: 64,
            deadline_ms: 30,
        })
        .expect("send");
    let slow = client
        .send(RequestBody::Sample {
            profile: 0,
            count: 64,
            deadline_ms: 30_000,
        })
        .expect("send");
    let mut expired = false;
    let mut fulfilled = 0;
    for _ in 0..2 {
        let response = client
            .recv_timeout(RPC_TIMEOUT)
            .expect("recv")
            .expect("response before timeout");
        match response.body {
            ResponseBody::Samples { .. } => {
                assert_eq!(response.id, slow);
                fulfilled += 1;
            }
            ResponseBody::Error(error) => {
                assert_eq!(response.id, doomed);
                assert_eq!(error.kind, ErrorKind::DeadlineExceeded, "{error:?}");
                assert!(error.retryable);
                expired = true;
            }
            other => panic!("unexpected body {other:?}"),
        }
    }
    assert!(expired);
    assert_eq!(fulfilled, 1);
    // Admission happened: both requests own a sequence number.
    let audit = client.replay_audit(RPC_TIMEOUT).expect("audit");
    assert_eq!(audit.submitted, 2);
    let report = fixture.server.shutdown();
    assert!(report.lossless());
    assert_eq!(report.deadline_expired, 1);
    assert_eq!(report.responses, 1);
}

#[test]
fn drain_under_load_answers_everything_accepted() {
    // Stall the worker so five accepted requests are still in flight
    // when the drain starts; all five must be answered before the
    // connection closes, and the report must balance.
    let plan = FaultPlan::new().stall_at_request(0, 0, Duration::from_millis(300));
    let fixture = fixture(1, 64, 46, Some(plan), ServerConfig::default());
    let mut client = connect(&fixture, CodecKind::Binary);
    let mut ids = Vec::new();
    for _ in 0..5 {
        ids.push(
            client
                .send(RequestBody::Sample {
                    profile: 0,
                    count: 64,
                    deadline_ms: 30_000,
                })
                .expect("send"),
        );
    }
    // Let the reader accept all five, then pull the plug mid-stall.
    std::thread::sleep(Duration::from_millis(100));
    let addr = fixture.server.local_addr();
    let drain = std::thread::spawn(move || fixture.server.shutdown());

    let mut answered = 0;
    while answered < 5 {
        match client.recv_timeout(RPC_TIMEOUT) {
            Ok(Some(response)) => {
                assert!(ids.contains(&response.id));
                match response.body {
                    ResponseBody::Samples { samples, .. } => assert_eq!(samples.len(), 64),
                    other => panic!("accepted request answered {other:?}"),
                }
                answered += 1;
            }
            Ok(None) => {}
            Err(error) => panic!("connection died with {answered}/5 answered: {error}"),
        }
    }
    let report = drain.join().expect("drain thread");
    assert!(report.lossless(), "{report:?}");
    assert_eq!(report.accepted, 5);
    assert_eq!(report.responses, 5);

    // The drained server is gone: a fresh connect must fail rather than
    // hang (bounded by the client's own retry budget).
    let refused = Client::connect(
        addr,
        CodecKind::Binary,
        &ConnectOptions {
            attempts: 2,
            ..ConnectOptions::default()
        },
    );
    assert!(matches!(
        refused,
        Err(ClientError::Connect(_) | ClientError::Hello | ClientError::Frame(_))
    ));
}
