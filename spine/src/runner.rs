//! Running one op (one replay of a workload's script) in-process or
//! over loopback, the span recorder wrapped around each call, and the
//! correctness gate.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use codemassage::client::Client;
use codemassage::engine::reference::{assert_same_order, assert_same_rows, naive_execute};
use codemassage::engine::{result_to_table, QueryOptions, QueryResult, Session};
use codemassage::server::{Server, ServerConfig};

use crate::stats::Span;
use crate::workloads::{Instance, Step};

/// In-memory span recorder: spans are kept here and written out when
/// the run ends. A disabled recorder costs one branch per call, so the
/// untraced and the traced run execute the same op code.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// The id the next op gets, and the distance to the one after: ops
    /// of one run never share an id, across sections and connections.
    next_op: u64,
    op_step: u64,
}

impl Recorder {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            op_step: 1,
        }
    }

    /// Start the next op: allot its id and open its root span.
    pub fn begin_op(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += self.op_step;
        self.begin("op", op);
        op
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.iter().rev().nth(1).copied(),
            op,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let r = f();
        self.end();
        r
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append the spans of a [`sibling`](Recorder::sibling) (a second
    /// connection's), keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        self.next_op = self.next_op.max(other.next_op);
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// An empty recorder on the same epoch for thread `lane` of `lanes`,
    /// whose op ids interleave with its siblings'.
    pub fn sibling(&self, lane: u64, lanes: u64) -> Recorder {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: self.next_op + lane,
            op_step: lanes,
        }
    }
}

/// 64-bit digest of an op's results: every column name and value of
/// every step, in order.
pub fn digest(results: &[QueryResult]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |v: u64| h = (h.rotate_left(5) ^ v).wrapping_mul(K);
    for r in results {
        mix(r.columns.len() as u64);
        for (name, vals) in &r.columns {
            name.bytes().for_each(|b| mix(u64::from(b)));
            mix(vals.len() as u64);
            vals.iter().for_each(|&v| mix(v));
        }
    }
    h
}

/// The in-process session `inst` is served through.
pub fn session(inst: &Instance) -> Session<'_> {
    match inst.cache_capacity {
        Some(cap) => Session::with_cache_capacity(&inst.db, inst.engine.clone(), cap),
        None => Session::new(&inst.db, inst.engine.clone()),
    }
}

/// One op through `Session::query`. Returns each step's result, or the
/// first error.
pub fn local_op(
    session: &Session<'_>,
    steps: &[Step],
    rec: &mut Recorder,
    op: u64,
) -> Result<Vec<QueryResult>, String> {
    let mut out = Vec::with_capacity(steps.len());
    for step in steps {
        rec.begin("engine.session_query", op);
        let r = session.query(&step.table, &step.query, QueryOptions::default());
        rec.end();
        let r = r.map_err(|e| format!("{}: {e}", step.query.name))?;
        if step.materialize {
            rec.span("engine.result_to_table", op, || {
                black_box(result_to_table("stage1", &r));
            });
        }
        out.push(r);
    }
    Ok(out)
}

/// One op through one loopback connection. A shed request
/// (`Overloaded`) is an error like any other.
pub fn remote_op(
    client: &mut Client,
    steps: &[Step],
    rec: &mut Recorder,
    op: u64,
) -> Result<Vec<QueryResult>, String> {
    let mut out = Vec::with_capacity(steps.len());
    for step in steps {
        rec.begin("client.query", op);
        let r = client.query(&step.table, &step.query, QueryOptions::default());
        rec.end();
        out.push(r.map_err(|e| format!("{}: {e}", step.query.name))?);
    }
    Ok(out)
}

/// The serving side of a loopback workload: the server (in this, the
/// generator's, process) and one prepared client per connection.
pub struct Remote {
    /// The running server.
    pub server: Server,
    /// One client per connection, plan caches warmed by `prepare`.
    pub clients: Vec<Client>,
    /// Wall time of each `Client::connect`, ms.
    pub connect_ms: Vec<f64>,
}

impl Remote {
    /// Spawn the server — default configuration, but the instance's
    /// engine configuration, so remote and in-process sessions plan
    /// alike — then connect and prepare every step on every connection.
    pub fn start(inst: &Instance) -> Result<Remote, String> {
        let config = ServerConfig {
            engine: inst.engine.clone(),
            ..ServerConfig::default()
        };
        let server =
            Server::spawn(inst.db.clone(), config).map_err(|e| format!("spawn server: {e}"))?;
        let mut clients = Vec::new();
        let mut connect_ms = Vec::new();
        for _ in 0..inst.connections {
            let t = Instant::now();
            let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
            connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
            c.set_receive_timeout(Some(std::time::Duration::from_secs(60)))
                .map_err(|e| format!("receive timeout: {e}"))?;
            for step in &inst.steps {
                c.prepare(&step.table, &step.query)
                    .map_err(|e| format!("prepare {}: {e}", step.query.name))?;
            }
            clients.push(c);
        }
        Ok(Remote {
            server,
            clients,
            connect_ms,
        })
    }

    /// Close every connection, stop the server and join its threads.
    /// Returns the wall time of `Server::shutdown`, ms.
    pub fn stop(self) -> f64 {
        for c in self.clients {
            // The goodbye is a courtesy; shutdown below joins the handler
            // either way.
            let _ = c.close();
        }
        let t = Instant::now();
        self.server.shutdown();
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// `f` panics on mismatch (the oracle's comparators assert); turn that
/// into a result, leaving the panic message on stderr as the diagnosis.
fn holds(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_ok()
}

/// The correctness gate. Every step is checked once against the scalar
/// oracle `naive_execute`: the row multiset for grouped and window
/// results, and additionally the order on the sort keys for `ORDER BY`
/// (keys the query does not select are selected for the check, and the
/// query's own result must then equal those columns). With `remote`,
/// each step's remote result must equal the in-process one exactly.
/// Returns the digest every later op must reproduce.
pub fn verify(
    inst: &Instance,
    session: &Session<'_>,
    remote: Option<&mut Remote>,
) -> Result<u64, String> {
    let mut off = Recorder::new(false);
    let local = local_op(session, &inst.steps, &mut off, 0)?;
    for (step, got) in inst.steps.iter().zip(&local) {
        let name = &step.query.name;
        let table = inst
            .db
            .table(&step.table)
            .ok_or_else(|| format!("{name}: table {} not registered", step.table))?;
        let ordered = step.query.group_by.is_empty() && step.query.partition_by.is_empty();
        let ok = if ordered {
            let keys: Vec<String> = step
                .query
                .order_by
                .iter()
                .map(|k| k.column.clone())
                .collect();
            let mut wide = step.query.clone();
            for k in &keys {
                if !wide.select.contains(k) {
                    wide.select.push(k.clone());
                }
            }
            let wide_got = session
                .query(&step.table, &wide, QueryOptions::default())
                .map_err(|e| format!("{name}: {e}"))?;
            let want = naive_execute(table, &wide);
            holds(|| assert_same_order(&wide_got.columns, &want, &keys))
                && got
                    .columns
                    .iter()
                    .all(|(n, v)| wide_got.column(n) == Some(v.as_slice()))
        } else {
            let want = naive_execute(table, &step.query);
            holds(|| assert_same_rows(&got.columns, &want))
        };
        if !ok {
            return Err(format!("{name}: result differs from the scalar oracle"));
        }
    }
    if let Some(remote) = remote {
        for client in &mut remote.clients {
            let got = remote_op(client, &inst.steps, &mut off, 0)?;
            for ((step, l), r) in inst.steps.iter().zip(&local).zip(&got) {
                if l.columns != r.columns {
                    return Err(format!(
                        "{}: remote result differs from the in-process one",
                        step.query.name
                    ));
                }
            }
        }
    }
    Ok(digest(&local))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cols: &[(&str, &[u64])]) -> QueryResult {
        QueryResult {
            columns: cols
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_vec()))
                .collect(),
            rows: cols.first().map_or(0, |c| c.1.len()),
            ..QueryResult::default()
        }
    }

    #[test]
    fn digest_sees_names_values_and_order() {
        let a = digest(&[result(&[("k", &[1, 2, 3])])]);
        assert_eq!(a, digest(&[result(&[("k", &[1, 2, 3])])]));
        assert_ne!(a, digest(&[result(&[("k", &[1, 3, 2])])]));
        assert_ne!(a, digest(&[result(&[("j", &[1, 2, 3])])]));
        assert_ne!(
            a,
            digest(&[result(&[("k", &[1, 2])]), result(&[("", &[3])])])
        );
        assert_ne!(a, digest(&[]));
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.next_op = 7;
        assert_eq!(rec.begin_op(), 7);
        rec.span("a", 7, || ());
        rec.begin("b", 7);
        rec.span("b.inner", 7, || ());
        rec.end();
        rec.end();
        let parents: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("op", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("b.inner", Some(2))
            ]
        );
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.op == 7 && s.end_ns >= s.start_ns));

        let mut other = rec.sibling(1, 2);
        assert_eq!(other.begin_op(), 9);
        other.span("c", 9, || ());
        other.end();
        assert_eq!(other.begin_op(), 11);
        other.end();
        rec.absorb(other);
        assert_eq!(rec.spans()[5].parent, Some(4));
        assert_eq!(rec.begin_op(), 13);

        let mut off = Recorder::new(false);
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
    }
}
