//! End-to-end loopback tests: a real TCP server on 127.0.0.1, driven by
//! the real client, compared byte-for-byte against the in-process
//! `Session` oracle. Backpressure and deadlines must surface to remote
//! clients as the same typed errors in-process callers see — never as a
//! hang or a dropped connection.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcs_client::Client;
use mcs_engine::wire::ErrorCode;
use mcs_engine::{
    Agg, AggKind, Column, Database, EngineConfig, EngineError, Filter, OrderKey, Predicate, Query,
    QueryOptions, Session, Table,
};
use mcs_server::{Server, ServerConfig};

fn sales_db(rows: usize) -> Database {
    let mut t = Table::new("sales");
    t.add_column(Column::from_u64s(
        "nation",
        5,
        (0..rows).map(|i| (i as u64 * 7) % 25),
    ));
    t.add_column(Column::from_u64s(
        "ship_date",
        11,
        (0..rows).map(|i| (i as u64 * 131) % 2048),
    ));
    t.add_column(Column::from_u64s(
        "price",
        16,
        (0..rows).map(|i| (i as u64 * 997) % 65536),
    ));
    let mut db = Database::new();
    db.register(t);
    db
}

fn shapes() -> Vec<Query> {
    let mut grouped = Query::named("grouped");
    grouped.group_by = vec!["nation".into(), "ship_date".into()];
    grouped.aggregates = vec![
        Agg::new(AggKind::Sum("price".into()), "sum_price"),
        Agg::new(AggKind::Count, "n"),
    ];

    let mut ordered = Query::named("ordered");
    ordered.order_by = vec![OrderKey::asc("nation"), OrderKey::desc("price")];
    ordered.select = vec!["ship_date".into()];
    ordered.filters = vec![Filter {
        column: "price".into(),
        predicate: Predicate::Ge(1000),
    }];

    let mut windowed = Query::named("windowed");
    windowed.partition_by = vec!["nation".into()];
    windowed.window_order = vec![OrderKey::desc("price")];
    windowed.select = vec!["ship_date".into()];

    vec![grouped, ordered, windowed]
}

/// Every query shape, served over TCP, must produce byte-identical
/// columns to the in-process session — prepare/execute and plain
/// execute alike.
#[test]
fn loopback_results_are_byte_identical_to_in_process() {
    let db = Arc::new(sales_db(4096));
    let server = Server::spawn(Arc::clone(&db), ServerConfig::default()).unwrap();
    let oracle_session = Session::new(&db, EngineConfig::default());

    let mut client = Client::connect(server.addr()).unwrap();
    client
        .set_receive_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    for q in shapes() {
        let want = oracle_session
            .query("sales", &q, QueryOptions::default())
            .unwrap();

        client.prepare("sales", &q).unwrap();
        let got = client.query("sales", &q, QueryOptions::default()).unwrap();
        assert_eq!(
            got.columns, want.columns,
            "{}: remote != in-process",
            q.name
        );
        assert_eq!(got.rows, want.rows);

        // And the encoding itself is deterministic: two executions of
        // the same query serialize to the same bytes.
        use mcs_engine::wire::Wire;
        let again = client.query("sales", &q, QueryOptions::default()).unwrap();
        assert_eq!(again.to_bytes(), got.to_bytes(), "{}", q.name);
    }
    client.close().unwrap();
    server.shutdown();
}

/// Sort keys whose few distinct values are spread over wide declared
/// widths sort at their rank widths and are decoded through their
/// dictionaries: served over TCP, every shape is byte-identical to the
/// in-process session and agrees with the naive reference.
#[test]
fn rank_coded_keys_are_byte_identical_over_the_wire() {
    use mcs_engine::reference::{assert_same_order, assert_same_rows, naive_execute};

    let rows = 4096u64;
    let mut t = Table::new("sales");
    // 25 nations, 400 dates and 3,000 prices at 40, 33 and 48 bits.
    t.add_column(Column::from_u64s(
        "nation",
        40,
        (0..rows).map(|i| (i * 7 % 25) << 34),
    ));
    t.add_column(Column::from_u64s(
        "ship_date",
        33,
        (0..rows).map(|i| (i * 131 % 400) * 0x0135_79BD),
    ));
    t.add_column(Column::from_u64s(
        "price",
        48,
        (0..rows).map(|i| (i * 997 % 3000) << 36 | 0xFFF),
    ));
    let table = t.clone();
    let mut db = Database::new();
    db.register(t);
    let db = Arc::new(db);
    let server = Server::spawn(Arc::clone(&db), ServerConfig::default()).unwrap();
    let oracle_session = Session::new(&db, EngineConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .set_receive_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    let mut shapes = shapes();
    // Select the keys too, so the ordered shape decodes them.
    shapes[1].select = vec!["nation".into(), "price".into(), "ship_date".into()];
    shapes[1].filters[0].predicate = Predicate::Ge(1 << 40);
    for q in shapes {
        let want = oracle_session
            .query("sales", &q, QueryOptions::default())
            .unwrap();
        let widths = &want.timings.key_widths;
        assert_eq!(widths.len(), q.sort_keys().len(), "{}", q.name);
        assert!(widths.iter().all(|k| k.sorted < k.declared), "{widths:?}");
        client.prepare("sales", &q).unwrap();
        let got = client.query("sales", &q, QueryOptions::default()).unwrap();
        assert_eq!(
            got.columns, want.columns,
            "{}: remote != in-process",
            q.name
        );
        let reference = naive_execute(&table, &q);
        if q.order_by.is_empty() {
            assert_same_rows(&got.columns, &reference);
        } else {
            let keys: Vec<String> = q.order_by.iter().map(|k| k.column.clone()).collect();
            assert_same_order(&got.columns, &reference, &keys);
        }
    }
    client.close().unwrap();
    server.shutdown();
}

/// A batch request returns per-item results in input order, each
/// matching the oracle; an unknown table inside the batch fails that
/// item alone with a typed error.
#[test]
fn loopback_batch_matches_oracle_and_isolates_bad_items() {
    let db = Arc::new(sales_db(2048));
    let server = Server::spawn(Arc::clone(&db), ServerConfig::default()).unwrap();
    let oracle_session = Session::new(&db, EngineConfig::default());

    let qs = shapes();
    let mut items: Vec<(String, Query)> = qs
        .iter()
        .cycle()
        .take(6)
        .map(|q| ("sales".to_string(), q.clone()))
        .collect();
    items.insert(3, ("ghost_table".to_string(), qs[0].clone()));

    let mut client = Client::connect(server.addr()).unwrap();
    let results = client.batch(&items, 4, QueryOptions::default()).unwrap();
    assert_eq!(results.len(), items.len());
    for (i, ((table, q), r)) in items.iter().zip(&results).enumerate() {
        if table == "ghost_table" {
            let err = r.as_ref().expect_err("unknown table must fail its item");
            assert_eq!(err.code, ErrorCode::UnknownTable, "item {i}: {err}");
            assert!(err.message.contains("ghost_table"));
        } else {
            let want = oracle_session
                .query(table, q, QueryOptions::default())
                .unwrap();
            let got = r.as_ref().expect("well-formed item succeeds");
            assert_eq!(got.columns, want.columns, "item {i}");
        }
    }
    client.close().unwrap();
    server.shutdown();
}

/// A saturated server sheds with the typed `Overloaded { waited_ns }` —
/// the remote client observes exactly the in-process error, never a hang
/// or a dropped connection.
#[test]
fn saturated_server_sheds_with_typed_overloaded() {
    let db = Arc::new(sales_db(32768));
    let config = ServerConfig {
        permits: 1,
        ..ServerConfig::default()
    };
    let server = Server::spawn(Arc::clone(&db), config).unwrap();
    let addr = server.addr();

    let mut heavy = Query::named("heavy");
    heavy.group_by = vec!["nation".into(), "ship_date".into()];
    heavy.aggregates = vec![Agg::new(AggKind::Sum("price".into()), "s")];
    let light = shapes().remove(1);

    // One connection occupies the single permit with a deep batch while
    // another retries a zero-queue-budget execute until it gets shed.
    std::thread::scope(|s| {
        let hog = s.spawn(|| {
            let mut c = Client::connect(addr).unwrap();
            let items: Vec<(String, Query)> = (0..24)
                .map(|_| ("sales".to_string(), heavy.clone()))
                .collect();
            let r = c.batch(&items, 1, QueryOptions::default()).unwrap();
            assert!(r.iter().all(Result::is_ok));
            c.close().unwrap();
        });

        let mut c = Client::connect(addr).unwrap();
        c.set_receive_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let opts = QueryOptions::default().with_queue_timeout(Duration::ZERO);
        let mut observed = None;
        for _ in 0..4000 {
            match c.query("sales", &light, opts.clone()) {
                Ok(_) => std::thread::sleep(Duration::from_micros(200)),
                Err(e) => {
                    observed = Some(e);
                    break;
                }
            }
        }
        let err = observed
            .expect("a zero-queue-budget execute racing a 24-query batch on one permit must shed");
        match err.engine_error() {
            Some(EngineError::Overloaded { .. }) => {}
            other => panic!("expected typed Overloaded, got {other:?}: {err}"),
        }
        // The connection survived the shed: the same client still works.
        let r = c.query("sales", &light, QueryOptions::default()).unwrap();
        assert!(r.rows > 0);
        c.close().unwrap();

        hog.join().unwrap();
    });
    server.shutdown();
}

/// A deadline that expires server-side surfaces as the typed
/// `DeadlineExceeded`, and an already-expired deadline fails fast.
#[test]
fn remote_deadlines_surface_as_typed_errors() {
    let db = Arc::new(sales_db(4096));
    let server = Server::spawn(Arc::clone(&db), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let q = shapes().remove(0);
    // The remaining-budget encoding saturates at zero for an
    // already-expired deadline, so the server rejects before running.
    let expired = QueryOptions::default().with_deadline(Instant::now());
    let err = client.query("sales", &q, expired).unwrap_err();
    assert_eq!(
        err.engine_error(),
        Some(EngineError::DeadlineExceeded),
        "{err}"
    );

    // The connection keeps serving after the typed failure.
    let ok = client.query("sales", &q, QueryOptions::default()).unwrap();
    assert!(ok.rows > 0);
    client.close().unwrap();
    server.shutdown();
}

/// Engine errors that carry structure (unknown column/table) arrive with
/// the right code and a message naming the offender.
#[test]
fn typed_engine_errors_cross_the_wire() {
    let db = Arc::new(sales_db(256));
    let server = Server::spawn(Arc::clone(&db), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let mut q = Query::named("bad");
    q.order_by = vec![OrderKey::asc("no_such_column")];
    q.select = vec!["price".into()];
    let err = client
        .query("sales", &q, QueryOptions::default())
        .unwrap_err();
    let remote = err.remote().expect("typed remote error");
    assert_eq!(remote.code, ErrorCode::UnknownColumn);
    assert!(remote.message.contains("no_such_column"), "{remote}");

    let err = client
        .query("nope", &shapes()[1], QueryOptions::default())
        .unwrap_err();
    assert_eq!(err.remote().unwrap().code, ErrorCode::UnknownTable);

    // Prepare surfaces the same taxonomy.
    let err = client.prepare("nope", &shapes()[1]).unwrap_err();
    assert_eq!(err.remote().unwrap().code, ErrorCode::UnknownTable);

    client.close().unwrap();
    server.shutdown();
}

/// Shutdown drains cleanly: in-flight connections finish their current
/// request, every handler thread joins, and the port is releasable —
/// a new server can bind the same address immediately.
#[test]
fn graceful_shutdown_leaves_no_stray_threads_or_sockets() {
    let db = Arc::new(sales_db(1024));
    let server = Server::spawn(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Leave a connection open (idle) and one mid-conversation.
    let idle = Client::connect(addr).unwrap();
    let mut active = Client::connect(addr).unwrap();
    let q = shapes().remove(1);
    active.query("sales", &q, QueryOptions::default()).unwrap();

    let t0 = Instant::now();
    server.shutdown(); // joins accept thread + both handlers
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown wedged: {:?}",
        t0.elapsed()
    );

    // The old port is free again: bind it directly.
    let rebound = Server::bind(addr, Arc::clone(&db), ServerConfig::default()).unwrap();
    let mut c = Client::connect(rebound.addr()).unwrap();
    let r = c.query("sales", &q, QueryOptions::default()).unwrap();
    assert!(r.rows > 0);
    c.close().unwrap();
    rebound.shutdown();

    drop(idle);
    drop(active);
}

/// Requests pipeline: ids chosen by the client come back on the matching
/// responses in order, over one connection.
#[test]
fn responses_echo_request_ids_for_pipelining() {
    use mcs_engine::wire::{Frame, Request, Response};

    let db = Arc::new(sales_db(512));
    let server = Server::spawn(Arc::clone(&db), ServerConfig::default()).unwrap();

    // Hand-rolled pipelining (the Client API is strictly call/response):
    // write three execute frames before reading any response.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let q = shapes().remove(1);
    let ids = [7u64, 99, 3];
    for id in ids {
        Request::Execute {
            table: "sales".into(),
            query: q.clone(),
            options: QueryOptions::default(),
        }
        .to_frame(id)
        .write_to(&mut stream)
        .unwrap();
    }
    for id in ids {
        let frame = Frame::read_from(&mut stream).unwrap();
        assert_eq!(frame.request_id, id, "responses arrive in request order");
        match Response::decode(frame.kind, &frame.payload).unwrap() {
            Response::Result(r) => assert!(r.rows > 0),
            other => panic!("expected Result, got {:?}", other.kind()),
        }
    }
    server.shutdown();
}
