//! The served wire protocol at its edges.
//!
//! - **Version.** A peer speaking the previous protocol version is
//!   refused: its HELLO, the version-5 golden bytes inlined below, gets
//!   an ERROR frame naming the unsupported version from a live server,
//!   and `decode_frame` reports the version it saw.
//! - **Frame bound.** HELLO_ACK announces `SAMPLES_FITTING_PAYLOAD`, the
//!   most samples whose SAMPLES payload fits `MAX_PAYLOAD`. One frame of
//!   exactly that many samples is served, journaled bit for bit, and
//!   detects what batch detects. A HELLO_ACK announcing 0, or more than
//!   fits, is refused by the client.
//! - **Ingest bytes.** `bytes_in` counts whole SAMPLES frames: the
//!   server's STATS in a TAIL reply and a router's METRICS report the
//!   sum of the encoded frame lengths the sessions sent.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use emprof::core::{Emprof, EmprofConfig};
use emprof::router::{BackendSpec, Router, RouterConfig};
use emprof::serve::net::{Conn, Stop};
use emprof::serve::proto::{
    decode_frame, encode_samples, samples_frame_len, ErrorCode, Frame, ProtoError,
    SAMPLES_FITTING_PAYLOAD, VERSION,
};
use emprof::serve::{ClientError, MetricsClient, ProfileClient, ServeConfig, Server, WatchClient};
use emprof::store::{read_session, JournalConfig};

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

/// `tests/fixtures/wire_golden/01_hello.bin` as protocol version 5 wrote
/// it: FNV-1a checksums, version field 5.
const V5_HELLO: [u8; 195] = [
    0x45, 0x4d, 0x05, 0x00, 0x01, 0x02, 0x84, 0x65, 0xb3, 0x00, 0x00, 0x00, 0x1f, 0xfa, 0xa6, 0x43,
    0x00, 0x00, 0x00, 0x00, 0xd0, 0x12, 0x83, 0x41, 0x00, 0x00, 0x00, 0x00, 0x6e, 0x0a, 0xce, 0x41,
    0xd0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0xd6, 0x3f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5e, 0x40, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x92, 0x40, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xa9,
    0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, 0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xdc,
    0x3f, 0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xdc, 0x3f, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xd3,
    0x3f, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xc9,
    0x3f, 0x10, 0x00, 0x67, 0x6f, 0x6c, 0x64, 0x65, 0x6e, 0x2d, 0x6f, 0x6c, 0x69, 0x6d, 0x65, 0x78,
    0x20, 0xc2, 0xb5, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0d, 0xf0, 0xad, 0x0b, 0xef,
    0xbe, 0xad, 0xde,
];

#[test]
fn a_version_5_hello_is_refused() {
    assert!(matches!(
        decode_frame(&V5_HELLO),
        Err(ProtoError::UnsupportedVersion(5))
    ));

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&V5_HELLO).unwrap();
    let mut conn = Conn::new(stream).unwrap();
    let deadline = Some(Instant::now() + Duration::from_secs(10));
    match conn.read_frame(&Stop::default(), deadline).unwrap() {
        Some(Frame::Error { code, message }) => {
            assert_eq!(code, ErrorCode::UnsupportedVersion);
            assert!(
                message.contains("unsupported protocol version 5"),
                "{message}"
            );
            assert!(message.contains(&format!("speaks {VERSION}")), "{message}");
        }
        other => panic!("wanted an ERROR frame, got {other:?}"),
    }
    server.shutdown();
}

fn fresh_journal_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emprof-serve-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn one_frame_at_the_announced_bound_is_served_and_journaled() {
    let len = SAMPLES_FITTING_PAYLOAD as usize;
    let mut signal = vec![5.0; len];
    for (start, width) in [(100_000, 12), (len - 5_000, 30)] {
        signal[start..start + width].fill(0.8);
    }
    // Bit patterns a re-encode could lose, where they cannot start a dip.
    signal[7] = -0.0;
    signal[8] = 5.0 + f64::EPSILON;
    let batch = Emprof::new(config()).profile_magnitude(&signal, FS, CLK);
    assert_eq!(batch.events().len(), 2);

    let dir = fresh_journal_dir();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let connect = || ProfileClient::connect(server.local_addr(), "t", config(), FS, CLK).unwrap();

    // Served equals batch, and one send of the bound is one frame.
    let mut client = connect();
    client.send(&signal).unwrap();
    let (mut events, stats) = client.flush().unwrap();
    assert_eq!(stats.samples_pushed, len as u64);
    assert_eq!(server.stats().frames_in, 1);
    events.extend(client.finish().unwrap().0);
    assert_eq!(events, batch.events());

    // A second session, killed before it finishes so its journal stays:
    // the journal holds the frame's samples bit for bit.
    let mut client = connect();
    let session_id = client.session_id();
    client.send(&signal).unwrap();
    client.flush().unwrap();
    assert_eq!(server.kill().frames_in, 2);
    let recovered = read_session(
        &dir.join(format!("session-{session_id}")),
        JournalConfig::default(),
    )
    .unwrap()
    .expect("journaled session");
    assert_eq!(recovered.samples.len(), 1);
    let (seq, journaled) = &recovered.samples[0];
    assert_eq!(*seq, 1);
    assert_eq!(journaled.len(), len);
    assert!(journaled
        .iter()
        .zip(&signal)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Answers one HELLO with a HELLO_ACK announcing `bound`.
fn fake_server(bound: u32) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream).unwrap();
        let deadline = Some(Instant::now() + Duration::from_secs(10));
        let hello = conn.read_frame(&Stop::default(), deadline).unwrap();
        assert!(matches!(hello, Some(Frame::Hello(_))));
        conn.write(&Frame::HelloAck {
            version: VERSION,
            session_id: 1,
            max_samples_per_frame: bound,
            resume_token: 2,
            acked_seq: 0,
            trace_id: 3,
        })
        .unwrap();
    });
    (addr, handle)
}

#[test]
fn a_hello_ack_bound_that_no_frame_can_carry_is_refused() {
    for bound in [0, SAMPLES_FITTING_PAYLOAD + 1, u32::MAX] {
        let (addr, server) = fake_server(bound);
        let err = ProfileClient::connect(addr, "t", config(), FS, CLK).unwrap_err();
        assert!(
            matches!(err, ClientError::Unexpected(_)),
            "bound {bound}: {err}"
        );
        server.join().unwrap();
    }
}

/// Streams `signal` in sends of `sizes` samples, each under the frame
/// bound so one send is one frame, and returns the encoded length of
/// every SAMPLES frame that carried them.
fn stream_frames(addr: std::net::SocketAddr, signal: &[f64], sizes: &[usize]) -> u64 {
    let mut client = ProfileClient::connect(addr, "bytes", config(), FS, CLK).unwrap();
    let (mut at, mut sent) = (0, 0u64);
    for (seq, &n) in (1u64..).zip(sizes) {
        let chunk = &signal[at..at + n];
        let frame = encode_samples(seq, chunk).len();
        assert_eq!(frame, samples_frame_len(n));
        client.send(chunk).unwrap();
        sent += frame as u64;
        at += n;
    }
    client.finish().unwrap();
    sent
}

#[test]
fn bytes_in_counts_whole_samples_frames() {
    let signal: Vec<f64> = (0..40_000)
        .map(|i| {
            if i % 900 < 14 {
                0.8
            } else {
                5.0 + (i % 7) as f64 / 50.0
            }
        })
        .collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let direct = stream_frames(server.local_addr(), &signal, &[1, 17, 4_096, 8_192, 5_003]);
    let stats = || {
        WatchClient::connect(server.local_addr())
            .unwrap()
            .poll()
            .unwrap()
            .server
    };
    assert_eq!(stats().frames_in, 5);
    assert_eq!(stats().bytes_in, direct);
    assert_eq!(server.stats().bytes_in, direct);

    // Through a router: the router counts the frames it received, and
    // the backend the same frames again as the router forwarded them.
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends: vec![BackendSpec {
                name: "b0".into(),
                addr: server.local_addr().to_string(),
                journal_dir: None,
            }],
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let routed = stream_frames(router.local_addr(), &signal, &[3, 8_000, 999]);
    let metrics = MetricsClient::connect(router.local_addr())
        .unwrap()
        .fetch_metrics()
        .unwrap();
    assert_eq!(metrics.server.frames_in, 3);
    assert_eq!(metrics.server.bytes_in, routed);
    assert_eq!(stats().bytes_in, direct + routed);
    router.shutdown();
    server.shutdown();
}
