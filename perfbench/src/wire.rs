//! The load generator's side of the wire, and the daemon process it
//! talks to.
//!
//! Requests are encoded once, before timing starts, and replies are
//! checked by comparing their bytes with the expected frame: a generator
//! that decodes every reply measures its own parser, not the daemon.

use intune_daemon::protocol::{self, Request, Response, HEADER_BYTES};
use intune_daemon::DaemonClient;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One framed request with the reply the daemon must send back.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request frame, header included.
    pub request: Vec<u8>,
    /// The expected reply frame, header included.
    pub reply: Vec<u8>,
    /// Selections the request asks for.
    pub vectors: u64,
}

impl Exchange {
    /// Frames `request_payload` and the `Selections` reply it must get.
    pub fn new(request_payload: &str, reply: &Response, vectors: usize) -> Exchange {
        Exchange {
            request: protocol::encode_frame(request_payload).expect("request fits a frame"),
            reply: protocol::encode_frame(&protocol::encode_message(reply))
                .expect("reply fits a frame"),
            vectors: vectors as u64,
        }
    }
}

/// A raw generator connection bound to one tenant.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    frame: Vec<u8>,
}

impl Conn {
    /// Connects and binds to the tenant serving `benchmark`.
    pub fn open(addr: &str, benchmark: &str) -> Conn {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader =
            BufReader::with_capacity(256 << 10, stream.try_clone().expect("clone the socket"));
        let mut conn = Conn {
            stream,
            reader,
            frame: Vec::new(),
        };
        conn.send(
            &protocol::encode_frame(&protocol::encode_message(&Request::Hello {
                client: "perfbench".to_string(),
                benchmark: benchmark.to_string(),
            }))
            .expect("hello fits a frame"),
        );
        let payload = conn.recv_payload().to_string();
        match protocol::decode_message::<Response>(&payload) {
            Ok(Response::HelloAck { .. }) => conn,
            other => panic!("unexpected hello reply from {benchmark}: {other:?}"),
        }
    }

    /// Sends one whole frame.
    pub fn send(&mut self, frame: &[u8]) {
        self.stream.write_all(frame).expect("send a request frame");
    }

    /// Receives one whole frame (header included) into an internal
    /// buffer and returns it.
    pub fn recv(&mut self) -> &[u8] {
        self.frame.resize(HEADER_BYTES, 0);
        self.reader
            .read_exact(&mut self.frame)
            .expect("receive a frame header");
        let len = u32::from_be_bytes(self.frame[..4].try_into().expect("4 bytes")) as usize;
        assert!(
            len <= protocol::MAX_FRAME_BYTES,
            "reply announces {len} bytes"
        );
        self.frame.resize(HEADER_BYTES + len, 0);
        self.reader
            .read_exact(&mut self.frame[HEADER_BYTES..])
            .expect("receive a frame payload");
        &self.frame
    }

    /// Receives one frame and returns its payload text.
    pub fn recv_payload(&mut self) -> &str {
        let frame = self.recv();
        std::str::from_utf8(&frame[HEADER_BYTES..]).expect("UTF-8 payload")
    }

    /// Sends `x` and checks the reply bytes; returns whether they matched.
    pub fn exchange(&mut self, x: &Exchange) -> bool {
        self.send(&x.request);
        self.recv() == x.reply.as_slice()
    }
}

/// A running `intune_daemon` process.
pub struct DaemonProc {
    child: Child,
    /// Held open so the daemon can never write into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` the daemon listens on.
    pub addr: String,
}

impl DaemonProc {
    /// Spawns the daemon with `args` (plus `--listen 127.0.0.1:0`) and
    /// waits for its `listening on` line. Its standard error goes to
    /// `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> DaemonProc {
        let stderr = std::fs::File::create(log)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", log.display()));
        let mut child = Command::new(bin)
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", bin.display()));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("read the daemon's stdout");
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            child.kill().ok();
            child.wait().ok();
            panic!(
                "daemon did not start (stdout {line:?}); see {}",
                log.display()
            );
        };
        DaemonProc {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    ///
    /// # Panics
    /// Panics if the daemon does not exit cleanly within ten seconds.
    pub fn shutdown(mut self, tenant: &str) {
        DaemonClient::connect_to(&self.addr, tenant)
            .and_then(|c| c.shutdown())
            .expect("daemon shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait().expect("wait for the daemon") {
                assert!(status.success(), "daemon exited with {status}");
                return;
            }
            assert!(Instant::now() < deadline, "daemon did not exit");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        // Never leave a daemon behind, also when a check panics.
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}
