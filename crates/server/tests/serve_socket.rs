//! Drives `mpcjoin-serve` over a real socket: a cache hit whose reply
//! is far larger than one socket write still comes back well inside a
//! delayed-ACK period (every reply leaves in one write on a
//! `TCP_NODELAY` socket), and frames pipelined in one write each get a
//! whole reply of their own.

use mpcjoin_server::wire::{self, ResponseView};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server; killed if a test fails before shutting it down.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn() -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mpcjoin-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--threads", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("the server starts");
        let mut first = String::new();
        BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut first)
            .expect("the server prints its address");
        let addr = first
            .trim()
            .strip_prefix("mpcjoin-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {first}"))
            .to_string();
        Server { child, addr }
    }

    /// Send a `shutdown` frame and wait for a clean exit.
    fn shut_down(mut self, client: &mut Client) {
        client.send("{\"type\":\"shutdown\",\"id\":999}".into());
        assert_eq!(client.recv().1.kind, "shutdown_ack");
        assert!(self.child.wait().unwrap().success());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(&server.addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, frame: String) {
        wire::write_frame(&mut self.stream, frame, None).expect("send");
    }

    /// One whole reply line, newline included.
    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(line.ends_with('\n'), "truncated reply: {line}");
        line
    }

    /// One reply line and its parsed view.
    fn recv(&mut self) -> (String, ResponseView) {
        let line = self.recv_line();
        let view = ResponseView::parse(line.trim_end()).expect("a parseable reply");
        (line, view)
    }
}

/// `R = {(i, 0)}`, `S = {(0, j)}` for `i, j < 40`: a 1 600-row product
/// whose reply is over 16 KiB.
fn block_product(id: u64) -> String {
    let r: Vec<String> = (0..40).map(|i| format!("[{i},0]")).collect();
    let s: Vec<String> = (0..40).map(|j| format!("[0,{j}]")).collect();
    format!(
        "{{\"type\":\"query\",\"id\":{id},\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
         \"servers\":4,\"relations\":{{\"R\":[{}],\"S\":[{}]}}}}",
        r.join(","),
        s.join(",")
    )
}

#[test]
fn large_cache_hits_come_back_without_a_delayed_ack_stall() {
    let server = Server::spawn();
    let mut client = Client::connect(&server);
    client.send(block_product(1));
    let (line, cold) = client.recv();
    assert_eq!((cold.kind.as_str(), cold.cached), ("result", false));
    assert!(line.len() > 16 * 1024, "reply is {} bytes", line.len());

    // A stalled reply waits for the client's delayed ACK (≥ 40 ms). The
    // timed round trip ends at the reply's newline; parsing it is not
    // the server's time.
    let mut round_trips: Vec<Duration> = (2..11)
        .map(|id| {
            let frame = block_product(id);
            let started = Instant::now();
            client.send(frame);
            let line = client.recv_line();
            let took = started.elapsed();
            let hit = ResponseView::parse(line.trim_end()).unwrap();
            assert!(hit.cached && hit.id == Some(id), "{hit:?}");
            assert_eq!(hit.result, cold.result);
            took
        })
        .collect();
    round_trips.sort();
    assert!(
        round_trips[4] < Duration::from_millis(20),
        "median hit round trip {:?} (all: {round_trips:?})",
        round_trips[4]
    );
    server.shut_down(&mut client);
}

#[test]
fn frames_pipelined_in_one_write_get_whole_replies_of_their_own() {
    let server = Server::spawn();
    let mut client = Client::connect(&server);
    client.send(block_product(1));
    let (_, cold) = client.recv();
    assert_eq!(cold.kind, "result");

    client.send(format!("{}\n{}", block_product(10), block_product(11)));
    let replies = [client.recv().1, client.recv().1];
    let mut ids: Vec<_> = replies.iter().map(|v| v.id).collect();
    ids.sort();
    assert_eq!(ids, [Some(10), Some(11)]);
    assert!(replies.iter().all(|v| v.cached && v.result == cold.result));
    let rids: Vec<_> = replies.iter().map(|v| v.rid.expect("stamped")).collect();
    assert_ne!(rids[0], rids[1], "each reply carries its own rid");
    server.shut_down(&mut client);
}
