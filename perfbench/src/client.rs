//! The benchmark's own serve client: one `write_all` per request frame on
//! a `TCP_NODELAY` socket, so round trips measure the daemon rather than
//! the client's framing.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Socket read timeouts wake up to a kernel tick late (4 ms at 250 Hz)
/// plus scheduling delay, so waits that must end on time block only until
/// this long before their deadline and then poll.
const POLL_WINDOW: Duration = Duration::from_millis(10);
/// Sleep between polls inside the window.
const POLL_SLEEP: Duration = Duration::from_micros(50);

/// Length-prefix `payload` into one contiguous frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("request payloads stay far below 4 GiB");
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// One client connection with its partial-frame buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    nonblocking: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            nonblocking: false,
        })
    }

    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Send one pre-framed request with a single write.
    pub fn send(&mut self, framed: &[u8]) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.stream.write_all(framed)
    }

    fn take_frame(&mut self) -> Option<Vec<u8>> {
        if self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if self.buf.len() < 4 + len {
            return None;
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Some(payload)
    }

    /// The next response payload, or `None` if none completed by
    /// `deadline`. Returns promptly at the deadline (within a poll
    /// sleep), and as soon as a response completes.
    pub fn recv_until(&mut self, deadline: Instant) -> io::Result<Option<Vec<u8>>> {
        let mut tmp = [0u8; 1 << 16];
        loop {
            if let Some(p) = self.take_frame() {
                return Ok(Some(p));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let left = deadline - now;
            let polling = left <= POLL_WINDOW;
            if polling {
                self.set_nonblocking(true)?;
            } else {
                self.set_nonblocking(false)?;
                self.stream.set_read_timeout(Some(left - POLL_WINDOW))?;
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if polling && e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_SLEEP.min(left));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}
