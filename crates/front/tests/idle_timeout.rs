//! The event loop's idle sweep (`ServerConfig::read_timeout`): a silent
//! connection is closed once the timeout passes, a connection whose reply
//! is still being computed is kept however long the batch takes, and the
//! server keeps serving everyone else.

use mq_core::QueryType;
use mq_front::FrontServer;
use mq_index::LinearScan;
use mq_metric::{ObjectId, Vector};
use mq_server::protocol::{read_message, Message};
use mq_server::{Client, EngineBackend, ServerConfig};
use mq_storage::{Dataset, PageLayout, PagedDatabase};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_millis(300);
/// Longer than the idle timeout, so a lone query's batch is still
/// collecting when the sweep looks at its connection.
const MAX_WAIT: Duration = Duration::from_millis(1500);

fn backend(ds: &Dataset<Vector>) -> Box<EngineBackend> {
    let db = PagedDatabase::pack(ds, PageLayout::new(512, 16));
    let scan = LinearScan::new(db.page_count());
    Box::new(EngineBackend::new(db, Box::new(scan), 0.05, true))
}

#[test]
fn idle_sweep_closes_silent_connections_only() {
    let ds = Dataset::new((0..200).map(|i| Vector::new(vec![i as f32, 0.0])).collect());
    let config = ServerConfig {
        max_batch: 2,
        max_wait: MAX_WAIT,
        read_timeout: Some(TIMEOUT),
        ..ServerConfig::default()
    };
    let mut server = FrontServer::bind("127.0.0.1:0", backend(&ds), &config).expect("bind");

    let mut silent = TcpStream::connect(server.local_addr()).expect("connect silent");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut busy = TcpStream::connect(server.local_addr()).expect("connect busy");
    busy.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // One query alone in its batch: it waits out MAX_WAIT before it runs,
    // so its reply stays in flight well past the idle timeout.
    let started = Instant::now();
    let frame = Message::Query {
        object: ds.object(ObjectId(42)).clone(),
        qtype: QueryType::knn(3),
        collection: String::new(),
        tenant: String::new(),
    }
    .encode();
    busy.write_all(&frame).expect("write query");

    // The silent connection is closed by the sweep: EOF, no reply bytes.
    let mut buf = [0u8; 64];
    let n = silent
        .read(&mut buf)
        .expect("silent connection must see EOF");
    let closed_after = started.elapsed();
    assert_eq!(n, 0, "a silent connection must get no reply bytes");
    assert!(
        closed_after >= TIMEOUT,
        "closed after {closed_after:?}, before the {TIMEOUT:?} timeout"
    );
    assert!(
        closed_after < MAX_WAIT,
        "closed after {closed_after:?}: the sweep should act within a tick of the timeout"
    );

    // The busy connection outlived the timeout and still gets its answer.
    match read_message(&mut busy).expect("the in-flight reply must arrive") {
        Message::Answers { answers, .. } => {
            assert_eq!(answers.len(), 3);
            assert_eq!(answers[0].id, ObjectId(42));
        }
        other => panic!("expected answers, got {other:?}"),
    }
    assert!(
        started.elapsed() > TIMEOUT,
        "the reply came back before the timeout, so the test proved nothing"
    );

    // The server keeps accepting and answering other clients.
    let mut fresh = Client::connect(server.local_addr()).expect("connect after sweep");
    let reply = fresh
        .query(ds.object(ObjectId(7)), &QueryType::knn(1))
        .expect("query after sweep");
    assert_eq!(reply.answers[0].id, ObjectId(7));

    drop((silent, busy, fresh));
    server.shutdown();
}
