//! Frame transports: in-process loopback, Unix socket, and TCP.
//!
//! All transports speak [`crate::wire`] frames and surface the same
//! typed [`DistError`]s, so the supervision layer above is
//! transport-agnostic. The loopback transport is *deterministic*: frames
//! arrive in send order with no reordering or loss, which is what lets a
//! dist run reproduce the single-process trainer bitwise. The stream
//! transports add deadline-based reads (`set_read_timeout`) on top of
//! OS byte streams.
//!
//! With the `failpoints` feature, two sites are armed from tests:
//! `transport::send` (corrupt/truncate/delay an encoded frame before it
//! leaves) and `transport::recv` (corrupt a received frame before
//! decoding). Both reuse the workspace-wide registry in
//! `marl_algo::failpoint`.

use crate::error::DistError;
use crate::queue::{BoundedQueue, PushError};
use crate::wire::{self, Msg};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bidirectional frame transport.
pub trait Transport: Send {
    /// Sends one message, blocking up to the transport's send deadline.
    ///
    /// # Errors
    ///
    /// [`DistError::QueueFull`] under sustained backpressure,
    /// [`DistError::Disconnected`]/[`DistError::Io`] on transport
    /// failure.
    fn send(&mut self, msg: &Msg) -> Result<(), DistError>;

    /// Receives one message, blocking up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`DistError::Timeout`] when the deadline elapses; quarantineable
    /// decode errors ([`DistError::is_quarantine`]) when a frame arrives
    /// corrupt; [`DistError::Disconnected`] when the peer is gone.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, DistError>;

    /// Frames known to be queued toward this end (the queue-depth
    /// metric); `0` for transports without visibility (OS sockets).
    fn pending(&self) -> usize {
        0
    }

    /// A second receive handle onto the same connection (an OS-level
    /// `dup`), for a dedicated reader thread. `None` when the transport
    /// cannot be split — callers must then poll inline.
    fn split_recv(&self) -> Option<Box<dyn Transport>> {
        None
    }
}

/// Applies the `transport::send` failpoint to an encoded frame.
#[cfg(feature = "failpoints")]
fn send_failpoint(bytes: &mut Vec<u8>) {
    if let Some(fault) = marl_algo::failpoint::take("transport::send") {
        if let Some(fault) = marl_algo::failpoint::sleep_delay(fault) {
            marl_algo::failpoint::corrupt(bytes, fault);
        }
    }
}

/// Applies the `transport::recv` failpoint to a received frame.
#[cfg(feature = "failpoints")]
fn recv_failpoint(bytes: &mut Vec<u8>) {
    if let Some(fault) = marl_algo::failpoint::take("transport::recv") {
        if let Some(fault) = marl_algo::failpoint::sleep_delay(fault) {
            marl_algo::failpoint::corrupt(bytes, fault);
        }
    }
}

#[cfg(not(feature = "failpoints"))]
fn send_failpoint(_bytes: &mut Vec<u8>) {}
#[cfg(not(feature = "failpoints"))]
fn recv_failpoint(_bytes: &mut Vec<u8>) {}

// ---------------------------------------------------------------------
// In-process loopback
// ---------------------------------------------------------------------

/// One end of a deterministic in-process loopback: two bounded frame
/// queues, in-order, no loss. Frames still round-trip through the full
/// byte encoding (header, CRC), so corruption injected at the failpoint
/// sites is *detected* exactly as it would be on a socket.
#[derive(Debug)]
pub struct LoopbackTransport {
    tx: Arc<BoundedQueue<Vec<u8>>>,
    rx: Arc<BoundedQueue<Vec<u8>>>,
    send_timeout: Duration,
}

/// Creates a connected loopback pair `(a, b)`: frames sent on `a` arrive
/// on `b` and vice versa. Each direction buffers at most `capacity`
/// frames; a full direction blocks the sender up to `send_timeout`
/// before reporting [`DistError::QueueFull`] (bounded backpressure).
pub fn loopback_pair(
    capacity: usize,
    send_timeout: Duration,
) -> (LoopbackTransport, LoopbackTransport) {
    let ab = Arc::new(BoundedQueue::new(capacity));
    let ba = Arc::new(BoundedQueue::new(capacity));
    (
        LoopbackTransport { tx: Arc::clone(&ab), rx: Arc::clone(&ba), send_timeout },
        LoopbackTransport { tx: ba, rx: ab, send_timeout },
    )
}

impl LoopbackTransport {
    /// Frames currently queued toward this end (the queue-depth metric).
    pub fn pending(&self) -> usize {
        self.rx.len()
    }

    /// Closes both directions; the peer observes
    /// [`DistError::Disconnected`] once drained.
    pub fn close(&self) {
        self.tx.close();
        self.rx.close();
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        self.close();
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, msg: &Msg) -> Result<(), DistError> {
        let mut bytes = wire::encode_frame(msg);
        send_failpoint(&mut bytes);
        match self.tx.push_timeout(bytes, self.send_timeout) {
            Ok(()) => Ok(()),
            Err(PushError::Full) => Err(DistError::QueueFull { capacity: self.tx.capacity() }),
            Err(PushError::Closed) => Err(DistError::Disconnected),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, DistError> {
        match self.rx.pop_timeout(timeout) {
            Ok(Some(mut bytes)) => {
                recv_failpoint(&mut bytes);
                wire::decode_frame(&bytes)
            }
            Ok(None) => {
                Err(DistError::Timeout { site: "recv", after_ms: timeout.as_millis() as u64 })
            }
            Err(()) => Err(DistError::Disconnected),
        }
    }

    fn pending(&self) -> usize {
        self.rx.len()
    }
}

// ---------------------------------------------------------------------
// Byte-stream transports (Unix socket / TCP)
// ---------------------------------------------------------------------

/// The underlying OS byte stream of a [`StreamTransport`].
#[derive(Debug)]
enum StreamKind {
    /// Unix domain socket.
    Unix(UnixStream),
    /// TCP socket.
    Tcp(TcpStream),
}

/// A frame transport over an OS byte stream with deadline-based reads.
///
/// Quarantineable decode errors are still *typed* here, but a byte
/// stream cannot trust a corrupt length field to find the next frame
/// boundary, so callers must treat them as connection-fatal and
/// reconnect (the worker side does, with backoff).
#[derive(Debug)]
pub struct StreamTransport {
    stream: StreamKind,
    frame_deadline: Duration,
}

impl StreamTransport {
    /// Once the first byte of a frame has arrived the rest must follow
    /// within this per-`read` deadline — generous by default, because a
    /// multi-megabyte parameter snapshot can legitimately trickle
    /// through small socket buffers while the peer interleaves its own
    /// work. Latency-sensitive paths (the serve request loop, where a
    /// frame is a few hundred bytes) should shorten it via
    /// [`StreamTransport::with_frame_deadline`] so one stalled client
    /// cannot pin a reader thread for ten seconds.
    pub const DEFAULT_FRAME_DEADLINE: Duration = Duration::from_secs(10);

    /// Wraps a connected Unix socket.
    pub fn unix(stream: UnixStream) -> Self {
        StreamTransport {
            stream: StreamKind::Unix(stream),
            frame_deadline: Self::DEFAULT_FRAME_DEADLINE,
        }
    }

    /// Wraps a connected TCP socket (Nagle disabled: frames are latency-
    /// sensitive parameter/step exchanges).
    pub fn tcp(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        StreamTransport {
            stream: StreamKind::Tcp(stream),
            frame_deadline: Self::DEFAULT_FRAME_DEADLINE,
        }
    }

    /// Builder form of [`StreamTransport::set_frame_deadline`].
    #[must_use]
    pub fn with_frame_deadline(mut self, deadline: Duration) -> Self {
        self.set_frame_deadline(deadline);
        self
    }

    /// Sets the mid-frame read deadline for this connection: once a
    /// frame's first byte has arrived, each subsequent `read` must make
    /// progress within this budget or the frame is declared
    /// [`DistError::Truncated`] (connection-fatal).
    pub fn set_frame_deadline(&mut self, deadline: Duration) {
        // A zero Duration means "no timeout" to the OS; clamp up instead.
        self.frame_deadline = deadline.max(Duration::from_millis(1));
    }

    /// The mid-frame read deadline currently in force.
    pub fn frame_deadline(&self) -> Duration {
        self.frame_deadline
    }

    /// Clones the underlying socket handle (separate reader/writer);
    /// the clone inherits this connection's frame deadline.
    ///
    /// # Errors
    ///
    /// Propagates the OS `dup` failure.
    pub fn try_clone(&self) -> Result<Self, DistError> {
        let stream = match &self.stream {
            StreamKind::Unix(s) => StreamKind::Unix(s.try_clone()?),
            StreamKind::Tcp(s) => StreamKind::Tcp(s.try_clone()?),
        };
        Ok(StreamTransport { stream, frame_deadline: self.frame_deadline })
    }

    fn set_read_timeout(&mut self, timeout: Duration) -> Result<(), DistError> {
        // A zero Duration means "no timeout" to the OS; clamp up instead.
        let t = timeout.max(Duration::from_millis(1));
        match &mut self.stream {
            StreamKind::Unix(s) => s.set_read_timeout(Some(t))?,
            StreamKind::Tcp(s) => s.set_read_timeout(Some(t))?,
        }
        Ok(())
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match &mut self.stream {
            StreamKind::Unix(s) => s.read(buf),
            StreamKind::Tcp(s) => s.read(buf),
        }
    }

    /// Fills `buf` completely. The *first* byte is awaited up to
    /// `first_timeout`; timing out there is clean (nothing consumed, the
    /// stream stays framed) and surfaces as [`DistError::Timeout`]. Once
    /// any byte has arrived the peer has committed to a frame, so the
    /// rest is awaited up to the connection's frame deadline per read
    /// and a timeout mid-buffer is [`DistError::Truncated`] —
    /// connection-fatal, because a byte stream cannot resync mid-frame.
    fn read_full(&mut self, buf: &mut [u8], first_timeout: Duration) -> Result<(), DistError> {
        if buf.is_empty() {
            return Ok(());
        }
        self.set_read_timeout(first_timeout)?;
        let mut got = 0usize;
        loop {
            match self.read(&mut buf[got..]) {
                Ok(0) => {
                    return if got == 0 {
                        Err(DistError::Disconnected)
                    } else {
                        Err(DistError::Truncated { needed: buf.len(), got })
                    };
                }
                Ok(n) => {
                    if got == 0 {
                        // Committed: the rest of the frame gets patience.
                        let deadline = self.frame_deadline;
                        self.set_read_timeout(deadline)?;
                    }
                    got += n;
                    if got == buf.len() {
                        return Ok(());
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return if got == 0 {
                        Err(DistError::Timeout {
                            site: "recv",
                            after_ms: first_timeout.as_millis() as u64,
                        })
                    } else {
                        Err(DistError::Truncated { needed: buf.len(), got })
                    };
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match &mut self.stream {
            StreamKind::Unix(s) => {
                s.write_all(buf)?;
                s.flush()
            }
            StreamKind::Tcp(s) => {
                s.write_all(buf)?;
                s.flush()
            }
        }
    }

    /// Sends one pre-encoded frame verbatim (the raw binary path: the
    /// caller built the frame into a reusable buffer with
    /// [`wire::begin_raw_frame`]/[`wire::finish_raw_frame`], so nothing
    /// allocates here).
    ///
    /// # Errors
    ///
    /// [`DistError::Disconnected`]/[`DistError::Io`] on stream failure.
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<(), DistError> {
        self.write_all(frame)?;
        Ok(())
    }

    /// Receives one validated frame into `buf` (header + payload) and
    /// returns its kind; the payload is `buf[wire::HEADER_LEN..]`.
    ///
    /// `buf` is cleared and refilled in place — `clear` + `resize` keep
    /// its capacity, so a connection that reuses one buffer stops
    /// allocating once the buffer reaches its working size. The first
    /// header byte is awaited up to `first_timeout`; the body falls
    /// under the connection's frame deadline.
    ///
    /// # Errors
    ///
    /// [`DistError::Timeout`] when no frame starts within
    /// `first_timeout`; truncation/corruption errors as in
    /// [`Transport::recv_timeout`] (connection-fatal on a byte stream).
    pub fn recv_raw_into(
        &mut self,
        buf: &mut Vec<u8>,
        first_timeout: Duration,
    ) -> Result<u16, DistError> {
        let mut header = [0u8; wire::HEADER_LEN];
        self.read_full(&mut header, first_timeout)?;
        let parsed = wire::decode_header(&header)?;
        buf.clear();
        buf.resize(wire::HEADER_LEN + parsed.len, 0);
        buf[..wire::HEADER_LEN].copy_from_slice(&header);
        let deadline = self.frame_deadline;
        let body = &mut buf[wire::HEADER_LEN..];
        if !body.is_empty() {
            self.read_full(body, deadline)?;
        }
        recv_failpoint(buf);
        let (kind, _) = wire::decode_raw_frame(buf)?;
        Ok(kind)
    }

    /// Sets the read timeout [`StreamTransport::recv_frames`] waits
    /// under. It is a socket option, set once per connection; the
    /// receive itself changes no option.
    ///
    /// # Errors
    ///
    /// Propagates the OS `setsockopt` failure.
    pub fn set_recv_poll(&mut self, poll: Duration) -> Result<(), DistError> {
        self.set_read_timeout(poll)
    }

    /// Bounds every send on this socket: a send that makes no progress
    /// for `deadline` fails instead of blocking behind a peer that has
    /// stopped reading.
    ///
    /// # Errors
    ///
    /// Propagates the OS `setsockopt` failure.
    pub fn set_send_deadline(&mut self, deadline: Duration) -> Result<(), DistError> {
        // A zero Duration means "no timeout" to the OS; clamp up instead.
        let t = Some(deadline.max(Duration::from_millis(1)));
        match &self.stream {
            StreamKind::Unix(s) => s.set_write_timeout(t)?,
            StreamKind::Tcp(s) => s.set_write_timeout(t)?,
        }
        Ok(())
    }

    /// Shuts down both directions of the socket. A thread blocked reading
    /// or writing on any handle to it returns at once.
    pub fn shutdown(&self) {
        // Fails only on a socket that is already disconnected.
        let _ = match &self.stream {
            StreamKind::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            StreamKind::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// One `read` into `frames`' free space, so one system call takes a
    /// whole run of frames (or part of one). Returns the bytes received;
    /// take the complete frames with [`FrameReader::next_frame`] before
    /// the next call.
    ///
    /// The wait is bounded by [`StreamTransport::set_recv_poll`]. The
    /// frame deadline runs only while a frame is partly received: a
    /// buffer that holds only whole frames may wait forever, while a
    /// partial frame that makes no progress for the deadline is
    /// truncated.
    ///
    /// # Errors
    ///
    /// [`DistError::Timeout`] when nothing arrived within the poll and no
    /// partial frame is overdue; [`DistError::Truncated`] for an overdue
    /// partial frame, or a peer that closed in the middle of one;
    /// [`DistError::Disconnected`] when the peer closed between frames.
    pub fn recv_frames(&mut self, frames: &mut FrameReader) -> Result<usize, DistError> {
        // Cleared whenever the buffer holds only whole frames, so an idle
        // connection never inherits an old partial frame's clock.
        frames.stalled_since = match frames.pending() {
            0 => None,
            _ => Some(frames.stalled_since.unwrap_or_else(Instant::now)),
        };
        if frames.unfilled().is_empty() {
            return Err(DistError::Protocol("receive buffer holds undrained frames".into()));
        }
        loop {
            match self.read(frames.unfilled()) {
                Ok(0) if frames.pending() == 0 => return Err(DistError::Disconnected),
                Ok(0) => return Err(frames.truncated()),
                Ok(n) => {
                    frames.filled(n);
                    frames.stalled_since = None;
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return match frames.stalled_since {
                        Some(t) if t.elapsed() >= self.frame_deadline => Err(frames.truncated()),
                        _ => Err(DistError::Timeout { site: "recv", after_ms: 0 }),
                    };
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// A fixed receive buffer that splits a byte stream into `MARD` frames,
/// for a reader that takes a whole run of frames per `read`
/// ([`StreamTransport::recv_frames`]).
///
/// The buffer is allocated once and never grows. A header that declares
/// more payload than the buffer holds is refused with
/// [`DistError::FrameTooLarge`] as soon as its 16 bytes are in, so a
/// hostile length costs nothing. Frames are validated as
/// [`wire::decode_raw_frame`] validates them (magic, version, CRC). A
/// partial frame stays and moves to the front of the buffer before the
/// next receive.
#[derive(Debug)]
pub struct FrameReader {
    buf: Box<[u8]>,
    /// First byte not yet returned as a frame.
    head: usize,
    /// End of the received bytes.
    tail: usize,
    /// When the current wait on a partial frame began.
    stalled_since: Option<Instant>,
}

impl FrameReader {
    /// A reader with a `capacity`-byte buffer: it takes frames of up to
    /// `capacity - wire::HEADER_LEN` payload bytes.
    ///
    /// # Panics
    ///
    /// If `capacity` is smaller than one frame header.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= wire::HEADER_LEN, "FrameReader: capacity below one frame header");
        FrameReader {
            buf: vec![0; capacity].into_boxed_slice(),
            head: 0,
            tail: 0,
            stalled_since: None,
        }
    }

    /// Received bytes not yet returned as frames: zero once
    /// [`FrameReader::next_frame`] has taken every whole frame and no
    /// partial one is held.
    pub fn pending(&self) -> usize {
        self.tail - self.head
    }

    /// The free space after the received bytes; a partial frame moves to
    /// the front first. Receive into it, then report the count to
    /// [`FrameReader::filled`].
    pub fn unfilled(&mut self) -> &mut [u8] {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        &mut self.buf[self.tail..]
    }

    /// Marks the first `n` bytes of [`FrameReader::unfilled`] received.
    ///
    /// # Panics
    ///
    /// If `n` exceeds the free space.
    pub fn filled(&mut self, n: usize) {
        assert!(n <= self.buf.len() - self.tail, "FrameReader::filled past the buffer");
        self.tail += n;
    }

    /// The next complete frame's kind and payload; `None` until more
    /// bytes arrive.
    ///
    /// # Errors
    ///
    /// The header and CRC errors of [`wire::decode_raw_frame`], and
    /// [`DistError::FrameTooLarge`]. Each is fatal to the stream: after a
    /// bad header there is no trustworthy next frame boundary.
    pub fn next_frame(&mut self) -> Result<Option<(u16, &[u8])>, DistError> {
        if self.pending() < wire::HEADER_LEN {
            return Ok(None);
        }
        let header = wire::decode_header(&self.buf[self.head..self.tail])?;
        let max = self.buf.len() - wire::HEADER_LEN;
        if header.len > max {
            return Err(DistError::FrameTooLarge { len: header.len, max });
        }
        let end = wire::HEADER_LEN + header.len;
        if self.pending() < end {
            return Ok(None);
        }
        let start = self.head;
        self.head += end;
        wire::decode_raw_frame(&self.buf[start..start + end]).map(Some)
    }

    /// The error for a stream that stopped inside the held partial frame.
    fn truncated(&self) -> DistError {
        let held = &self.buf[self.head..self.tail];
        let needed =
            wire::decode_header(held).map_or(wire::HEADER_LEN, |h| wire::HEADER_LEN + h.len);
        DistError::Truncated { needed, got: held.len() }
    }
}

impl Transport for StreamTransport {
    fn send(&mut self, msg: &Msg) -> Result<(), DistError> {
        let mut bytes = wire::encode_frame(msg);
        send_failpoint(&mut bytes);
        self.write_all(&bytes)?;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, DistError> {
        let mut header = [0u8; wire::HEADER_LEN];
        self.read_full(&mut header, timeout)?;
        let parsed = wire::decode_header(&header)?;
        let mut frame = Vec::with_capacity(wire::HEADER_LEN + parsed.len);
        frame.extend_from_slice(&header);
        frame.resize(wire::HEADER_LEN + parsed.len, 0);
        // The header arrived; the peer has committed a frame, so the body
        // is awaited patiently. A peer that dies mid-frame surfaces as
        // Truncated, which callers treat as connection-fatal (streams
        // cannot resync mid-frame).
        let deadline = self.frame_deadline;
        let body = &mut frame[wire::HEADER_LEN..];
        if !body.is_empty() {
            self.read_full(body, deadline)?;
        }
        recv_failpoint(&mut frame);
        wire::decode_frame(&frame)
    }

    fn split_recv(&self) -> Option<Box<dyn Transport>> {
        self.try_clone().ok().map(|t| Box::new(t) as Box<dyn Transport>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Heartbeat;

    fn hb(seq: u64) -> Msg {
        Msg::Heartbeat(Heartbeat { worker_id: 1, seq, env_steps: seq * 10, send_ns: 0 })
    }

    fn seq_of(msg: &Msg) -> u64 {
        match msg {
            Msg::Heartbeat(h) => h.seq,
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn loopback_is_in_order_and_bidirectional() {
        let (mut a, mut b) = loopback_pair(8, Duration::from_millis(100));
        for seq in 0..5 {
            a.send(&hb(seq)).unwrap();
        }
        for seq in 0..5 {
            assert_eq!(seq_of(&b.recv_timeout(Duration::from_millis(100)).unwrap()), seq);
        }
        b.send(&hb(99)).unwrap();
        assert_eq!(seq_of(&a.recv_timeout(Duration::from_millis(100)).unwrap()), 99);
    }

    #[test]
    fn loopback_backpressure_is_bounded() {
        let (mut a, _b) = loopback_pair(2, Duration::from_millis(5));
        a.send(&hb(0)).unwrap();
        a.send(&hb(1)).unwrap();
        let err = a.send(&hb(2)).unwrap_err();
        assert_eq!(err, DistError::QueueFull { capacity: 2 });
    }

    #[test]
    fn loopback_recv_times_out_then_disconnects_on_drop() {
        let (a, mut b) = loopback_pair(2, Duration::from_millis(5));
        let err = b.recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, DistError::Timeout { site: "recv", .. }));
        drop(a);
        let err = b.recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert_eq!(err, DistError::Disconnected);
    }

    #[test]
    fn unix_stream_roundtrip_and_timeout() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        a.send(&hb(7)).unwrap();
        assert_eq!(seq_of(&b.recv_timeout(Duration::from_millis(200)).unwrap()), 7);
        let err = b.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, DistError::Timeout { .. }), "{err}");
        drop(a);
        let err = b.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, DistError::Disconnected);
    }

    #[test]
    fn frame_deadline_is_configurable_and_survives_try_clone() {
        let (sa, _sb) = UnixStream::pair().expect("socketpair");
        let t = StreamTransport::unix(sa);
        assert_eq!(t.frame_deadline(), StreamTransport::DEFAULT_FRAME_DEADLINE);
        let t = t.with_frame_deadline(Duration::from_millis(50));
        assert_eq!(t.frame_deadline(), Duration::from_millis(50));
        let clone = t.try_clone().unwrap();
        assert_eq!(clone.frame_deadline(), Duration::from_millis(50));
        // Zero is clamped up (a zero OS timeout would mean "block forever").
        let mut t = t;
        t.set_frame_deadline(Duration::ZERO);
        assert!(t.frame_deadline() >= Duration::from_millis(1));
    }

    #[test]
    fn short_frame_deadline_truncates_a_stalled_mid_frame_peer() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb).with_frame_deadline(Duration::from_millis(30));
        // Send a header promising a body that never arrives: with the
        // 10s default this read would pin the thread; the short deadline
        // surfaces Truncated quickly.
        let mut frame = Vec::new();
        wire::begin_raw_frame(&mut frame);
        frame.extend_from_slice(&[1, 2, 3, 4]);
        wire::finish_raw_frame(wire::KIND_INFER_REQ, &mut frame);
        a.send_raw(&frame[..wire::HEADER_LEN + 1]).unwrap();
        let start = std::time::Instant::now();
        let mut buf = Vec::new();
        let err = b.recv_raw_into(&mut buf, Duration::from_millis(500)).unwrap_err();
        assert!(matches!(err, DistError::Truncated { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline not honored: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn raw_roundtrip_reuses_buffers_and_reports_kind() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        let mut frame = Vec::new();
        let mut rx = Vec::new();
        for round in 0u8..4 {
            wire::begin_raw_frame(&mut frame);
            frame.extend_from_slice(&[round; 24]);
            wire::finish_raw_frame(wire::KIND_INFER_RESP, &mut frame);
            a.send_raw(&frame).unwrap();
            let kind = b.recv_raw_into(&mut rx, Duration::from_millis(500)).unwrap();
            assert_eq!(kind, wire::KIND_INFER_RESP);
            assert_eq!(&rx[wire::HEADER_LEN..], &[round; 24]);
        }
        // Raw and JSON frames interleave on one connection.
        a.send(&hb(11)).unwrap();
        assert_eq!(seq_of(&b.recv_timeout(Duration::from_millis(500)).unwrap()), 11);
    }

    #[test]
    fn raw_recv_times_out_cleanly_between_frames() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let _a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        let mut buf = Vec::new();
        let err = b.recv_raw_into(&mut buf, Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, DistError::Timeout { site: "recv", .. }), "{err}");
    }

    /// A raw frame of `kind` carrying `payload`.
    fn raw(kind: u16, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        wire::begin_raw_frame(&mut frame);
        frame.extend_from_slice(payload);
        wire::finish_raw_frame(kind, &mut frame);
        frame
    }

    /// Copies `bytes` into the reader's free space, as a `read` would.
    fn feed(frames: &mut FrameReader, bytes: &[u8]) {
        frames.unfilled()[..bytes.len()].copy_from_slice(bytes);
        frames.filled(bytes.len());
    }

    #[test]
    fn frame_reader_splits_runs_and_reassembles_frames_split_across_reads() {
        let stream: Vec<u8> = (0u8..5).flat_map(|i| raw(wire::KIND_INFER_REQ, &[i; 7])).collect();
        let want: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 7]).collect();
        // 23-byte frames. The first read ends at `cut` (inside a header,
        // inside a payload, or on a boundary), then 29-byte reads.
        for cut in [0, 3, 16, 20, 23, 40, 46] {
            let mut frames = FrameReader::new(64);
            let mut seen = Vec::new();
            let (first, rest) = stream.split_at(cut);
            for read in std::iter::once(first).chain(rest.chunks(29)) {
                feed(&mut frames, read);
                while let Some((kind, payload)) = frames.next_frame().unwrap() {
                    assert_eq!(kind, wire::KIND_INFER_REQ);
                    seen.push(payload.to_vec());
                }
            }
            assert_eq!(frames.pending(), 0, "cut {cut}: only whole frames were sent");
            assert_eq!(seen, want, "cut {cut}");
        }
    }

    #[test]
    fn frame_reader_refuses_a_header_too_large_for_its_buffer() {
        let mut frames = FrameReader::new(64);
        let mut header = raw(wire::KIND_INFER_REQ, &[0; 48])[..wire::HEADER_LEN].to_vec();
        feed(&mut frames, &header);
        assert_eq!(frames.next_frame().unwrap(), None, "48 bytes fit: wait for the body");
        let mut frames = FrameReader::new(64);
        header[8..12].copy_from_slice(&(wire::MAX_PAYLOAD as u32).to_le_bytes());
        feed(&mut frames, &header);
        let err = frames.next_frame().unwrap_err();
        assert_eq!(err, DistError::FrameTooLarge { len: wire::MAX_PAYLOAD, max: 48 });
        let mut frames = FrameReader::new(64);
        let mut corrupt = raw(wire::KIND_INFER_REQ, &[1; 4]);
        corrupt[wire::HEADER_LEN] ^= 1;
        feed(&mut frames, &corrupt);
        assert!(matches!(frames.next_frame(), Err(DistError::CrcMismatch { .. })));
    }

    #[test]
    fn recv_frames_waits_forever_between_frames_but_not_inside_one() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb).with_frame_deadline(Duration::from_millis(30));
        b.set_recv_poll(Duration::from_millis(10)).unwrap();
        let mut frames = FrameReader::new(256);
        let frame = raw(wire::KIND_INFER_REQ, &[9; 20]);
        a.send_raw(&frame).unwrap();
        assert_eq!(b.recv_frames(&mut frames).unwrap(), frame.len());
        assert!(frames.next_frame().unwrap().is_some());
        // Idle for several frame deadlines: a clean timeout every poll.
        let idle = std::time::Instant::now();
        while idle.elapsed() < Duration::from_millis(100) {
            let err = b.recv_frames(&mut frames).unwrap_err();
            assert!(matches!(err, DistError::Timeout { site: "recv", .. }), "{err}");
        }
        // A frame cut short stalls: truncated once the deadline passes.
        a.send_raw(&frame[..wire::HEADER_LEN + 3]).unwrap();
        b.recv_frames(&mut frames).unwrap();
        assert_eq!(frames.next_frame().unwrap(), None);
        let err = loop {
            match b.recv_frames(&mut frames) {
                Err(DistError::Timeout { .. }) => continue,
                other => break other.unwrap_err(),
            }
        };
        assert_eq!(err, DistError::Truncated { needed: frame.len(), got: wire::HEADER_LEN + 3 });
        drop(a);
        let mut frames = FrameReader::new(256);
        assert_eq!(b.recv_frames(&mut frames).unwrap_err(), DistError::Disconnected);
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut t = StreamTransport::tcp(TcpStream::connect(addr).expect("connect"));
            t.send(&hb(3)).unwrap();
            seq_of(&t.recv_timeout(Duration::from_secs(2)).unwrap())
        });
        let (conn, _) = listener.accept().expect("accept");
        let mut server = StreamTransport::tcp(conn);
        assert_eq!(seq_of(&server.recv_timeout(Duration::from_secs(2)).unwrap()), 3);
        server.send(&hb(4)).unwrap();
        assert_eq!(client.join().unwrap(), 4);
    }
}
