//! One connection's wire state, with no socket attached.
//!
//! [`Conn`] is bytes in ([`Conn::feed`]), complete request lines out
//! ([`Conn::next_frame`]), response frames queued ([`Conn::push_frame`])
//! and drained through an output cursor ([`Conn::output`] /
//! [`Conn::advance`]), plus the poller interest that state wants
//! ([`Conn::interest`]). It owns the framing format — newline
//! terminators, the [`MAX_REQUEST_BYTES`] cap per line, UTF-8 — and
//! nothing else: no socket, no daemon state, no clock. The event loop
//! moves bytes between it and the socket; tests drive it with plain
//! slices.
//!
//! Whether a line is accepted is a function of the byte stream alone,
//! never of how TCP happened to split it.

use crate::protocol::{self, MAX_REQUEST_BYTES};
use crate::reactor::Interest;

/// Per-connection unwritten-response gate: past this, the connection
/// stops asking to *read* until the client drains what it is owed
/// (level-triggered interest modulation, not a disconnect).
const WRITE_GATE_BYTES: usize = 4 * 1024 * 1024;

/// [`Conn::next_frame`] met bytes that can never become a request (a
/// line over the cap, or not UTF-8). The error frame is already queued
/// and the connection closes once it drains.
#[derive(Debug)]
pub(crate) struct Malformed;

/// The framing state machine of one connection.
pub(crate) struct Conn {
    /// Request bytes. `inbuf[..head]` are lines already handed out
    /// (dropped at the next `feed`); `inbuf[head..scanned]` is known to
    /// hold no newline, so every byte is searched once.
    inbuf: Vec<u8>,
    head: usize,
    scanned: usize,
    /// Queued response bytes; `written` of them are already out.
    outbuf: Vec<u8>,
    written: usize,
    /// One dispatched job in flight: pipelined lines wait in `inbuf`
    /// so responses stay in request order.
    busy: bool,
    /// Stop reading; the connection ends once `outbuf` drains.
    closing: bool,
}

impl Conn {
    /// A fresh connection over two (empty, possibly recycled) buffers.
    pub(crate) fn new(inbuf: Vec<u8>, outbuf: Vec<u8>) -> Conn {
        Conn { inbuf, head: 0, scanned: 0, outbuf, written: 0, busy: false, closing: false }
    }

    /// Gives the buffers back for recycling.
    pub(crate) fn into_buffers(self) -> (Vec<u8>, Vec<u8>) {
        (self.inbuf, self.outbuf)
    }

    /// Request bytes buffered but not yet handed out as lines.
    fn buffered(&self) -> usize {
        self.inbuf.len() - self.head
    }

    /// Appends received bytes. Returns whether the connection can take
    /// more right now: `false` once it is closing, or while more than a
    /// full frame is buffered (an oversized line about to be rejected,
    /// or a pipeline backlog behind a busy job).
    pub(crate) fn feed(&mut self, bytes: &[u8]) -> bool {
        if self.closing {
            return false;
        }
        self.inbuf.drain(..self.head);
        self.scanned -= self.head;
        self.head = 0;
        self.inbuf.extend_from_slice(bytes);
        self.buffered() as u64 <= MAX_REQUEST_BYTES
    }

    /// The next complete request line (without its newline, blank lines
    /// skipped), or `None` when there is none yet, a job is in flight,
    /// or the connection is closing.
    pub(crate) fn next_frame(&mut self) -> Option<Result<&str, Malformed>> {
        while !self.busy && !self.closing {
            let start = self.head;
            let newline = self.inbuf[self.scanned..].iter().position(|&b| b == b'\n');
            let end = newline.map_or(self.inbuf.len(), |at| self.scanned + at);
            if (end - start) as u64 > MAX_REQUEST_BYTES {
                // Over the cap, newline seen or not: the stream cannot
                // be trusted to resync.
                let message =
                    format!("request exceeds {MAX_REQUEST_BYTES} bytes; closing connection");
                return Some(Err(reject(&mut self.outbuf, &mut self.closing, &message)));
            }
            if newline.is_none() {
                self.scanned = end;
                break;
            }
            self.head = end + 1;
            self.scanned = end + 1;
            match std::str::from_utf8(&self.inbuf[start..end]) {
                Ok(line) if line.trim().is_empty() => {}
                Ok(line) => return Some(Ok(line)),
                Err(_) => {
                    let message = "malformed request: not UTF-8";
                    return Some(Err(reject(&mut self.outbuf, &mut self.closing, message)));
                }
            }
        }
        None
    }

    /// Queues one response frame (newline-terminated).
    pub(crate) fn push_frame(&mut self, frame: &str) {
        queue(&mut self.outbuf, frame);
    }

    /// Marks the line just taken as dispatched to a worker: no further
    /// lines come out until [`Conn::complete`].
    pub(crate) fn dispatched(&mut self) {
        self.busy = true;
    }

    /// Queues the in-flight job's response and resumes the pipeline.
    pub(crate) fn complete(&mut self, frame: &str) {
        self.busy = false;
        self.push_frame(frame);
    }

    /// Stops reading; the connection ends once the output drains.
    pub(crate) fn close_after_drain(&mut self) {
        self.closing = true;
    }

    /// Whether a dispatched job is in flight.
    pub(crate) fn is_busy(&self) -> bool {
        self.busy
    }

    /// Whether the connection ends once its output drains.
    pub(crate) fn is_closing(&self) -> bool {
        self.closing
    }

    /// The response bytes still to be written.
    pub(crate) fn output(&self) -> &[u8] {
        &self.outbuf[self.written..]
    }

    /// How many response bytes are still to be written.
    pub(crate) fn unwritten(&self) -> usize {
        self.outbuf.len() - self.written
    }

    /// Records that the first `n` bytes of [`Conn::output`] are out.
    pub(crate) fn advance(&mut self, n: usize) {
        self.written += n;
        if self.written == self.outbuf.len() {
            self.outbuf.clear();
            self.written = 0;
        }
    }

    /// The poller interest this state wants: reads unless gated (over
    /// the write gate, closing, or more than a full frame buffered),
    /// writes while anything is queued.
    pub(crate) fn interest(&self) -> Interest {
        let gated = self.unwritten() > WRITE_GATE_BYTES
            || self.closing
            || self.buffered() as u64 > MAX_REQUEST_BYTES;
        Interest { readable: !gated, writable: self.unwritten() > 0 }
    }
}

fn queue(outbuf: &mut Vec<u8>, frame: &str) {
    outbuf.extend_from_slice(frame.as_bytes());
    outbuf.push(b'\n');
}

/// Queues the error frame for an unframeable stream and stops reading.
/// Takes the output-side fields only, so it can run while a line
/// borrowed from the input buffer is still in scope.
fn reject(outbuf: &mut Vec<u8>, closing: &mut bool, message: &str) -> Malformed {
    queue(outbuf, &protocol::error_frame(message));
    *closing = true;
    Malformed
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MAX: usize = MAX_REQUEST_BYTES as usize;

    fn conn() -> Conn {
        Conn::new(Vec::new(), Vec::new())
    }

    /// Feeds `chunks` the way the event loop does — pump after every
    /// read — and returns the lines that came out plus how many times
    /// the stream was declared malformed.
    fn pump(conn: &mut Conn, chunks: &[&[u8]]) -> (Vec<String>, usize) {
        let (mut lines, mut malformed) = (Vec::new(), 0);
        for chunk in chunks {
            conn.feed(chunk);
            while let Some(next) = conn.next_frame() {
                match next {
                    Ok(line) => lines.push(line.to_string()),
                    Err(Malformed) => malformed += 1,
                }
            }
        }
        (lines, malformed)
    }

    /// Everything queued for the client so far, as text.
    fn queued(conn: &Conn) -> String {
        String::from_utf8(conn.output().to_vec()).expect("frames are UTF-8")
    }

    const PIPELINE: &[u8] =
        b"{\"op\":\"status\"}\n\r\n{\"op\":\"ring_status\"}\n   \n{\"op\":\"shutdown\"}\n";
    const PIPELINE_LINES: [&str; 3] =
        ["{\"op\":\"status\"}", "{\"op\":\"ring_status\"}", "{\"op\":\"shutdown\"}"];

    #[test]
    fn whole_and_bytewise_delivery_yield_the_same_lines_and_skip_blanks() {
        let (whole, bad) = pump(&mut conn(), &[PIPELINE]);
        assert_eq!((whole.as_slice(), bad), (&PIPELINE_LINES.map(str::to_string)[..], 0));
        let bytes: Vec<&[u8]> = PIPELINE.chunks(1).collect();
        let (bytewise, bad) = pump(&mut conn(), &bytes);
        assert_eq!((bytewise, bad), (whole, 0));
    }

    #[test]
    fn every_two_way_split_of_a_pipeline_yields_the_same_lines() {
        for at in 0..=PIPELINE.len() {
            let (lines, bad) = pump(&mut conn(), &[&PIPELINE[..at], &PIPELINE[at..]]);
            assert_eq!(
                (lines.as_slice(), bad),
                (&PIPELINE_LINES.map(str::to_string)[..], 0),
                "split at {at}"
            );
        }
    }

    proptest! {
        /// Three cuts anywhere: framing never depends on read boundaries.
        #[test]
        fn any_four_way_split_yields_the_same_lines(
            a in 0usize..PIPELINE.len() + 1,
            b in 0usize..PIPELINE.len() + 1,
            c in 0usize..PIPELINE.len() + 1,
        ) {
            let mut cuts = [a, b, c];
            cuts.sort_unstable();
            let [a, b, c] = cuts;
            let chunks = [&PIPELINE[..a], &PIPELINE[a..b], &PIPELINE[b..c], &PIPELINE[c..]];
            let (lines, bad) = pump(&mut conn(), &chunks);
            prop_assert_eq!(lines.as_slice(), &PIPELINE_LINES.map(str::to_string)[..]);
            prop_assert_eq!(bad, 0);
        }
    }

    /// The cap is on the line, not on how TCP split it: a line of
    /// exactly `MAX_REQUEST_BYTES` is handed out and one byte more is
    /// rejected, wherever the reads fall — including the split the old
    /// socket-side check got wrong, where the final read carries the
    /// newline of an already-oversized line.
    #[test]
    fn the_frame_cap_is_a_property_of_the_line_not_of_the_split() {
        let mut rng = TestRng::new("the_frame_cap_is_a_property_of_the_line_not_of_the_split");
        for (len, accepted) in [(MAX, true), (MAX + 1, false)] {
            let mut stream = vec![b'x'; len];
            stream.push(b'\n');
            let mut splits = vec![0, 1, 16 * 1024, MAX - 1, MAX, len, len + 1];
            splits.extend((0..6).map(|_| (0..len + 2).sample(&mut rng)));
            for at in splits {
                let mut conn = conn();
                let (lines, bad) = pump(&mut conn, &[&stream[..at], &stream[at..]]);
                if accepted {
                    assert_eq!((lines.len(), bad), (1, 0), "{len}-byte line split at {at}");
                    assert_eq!(lines[0].len(), len);
                    assert!(!conn.is_closing());
                } else {
                    assert_eq!((lines.len(), bad), (0, 1), "{len}-byte line split at {at}");
                    assert!(queued(&conn).contains("request exceeds 8388608 bytes; closing"));
                    assert!(conn.is_closing() && !conn.interest().readable);
                }
            }
        }
        // Chunked like a socket (16 KiB reads): the same two verdicts.
        for (len, accepted) in [(MAX, true), (MAX + 1, false)] {
            let mut stream = vec![b'x'; len];
            stream.push(b'\n');
            let chunks: Vec<&[u8]> = stream.chunks(16 * 1024).collect();
            let (lines, bad) = pump(&mut conn(), &chunks);
            assert_eq!((lines.len(), bad), (usize::from(accepted), usize::from(!accepted)));
        }
    }

    #[test]
    fn an_oversized_line_without_a_newline_stops_the_reads() {
        let mut conn = conn();
        assert!(conn.feed(&vec![b'x'; MAX]), "a full frame may still get its newline");
        assert!(conn.next_frame().is_none() && conn.interest().readable);
        assert!(!conn.feed(b"x"), "one byte over: stop reading");
        assert!(matches!(conn.next_frame(), Some(Err(Malformed))));
        assert!(!conn.feed(b"more"), "a closing connection takes no more input");
    }

    #[test]
    fn a_non_utf8_line_earns_the_error_frame_and_closes_after_drain() {
        let mut conn = conn();
        let (lines, bad) =
            pump(&mut conn, &[b"{\"op\":\"status\"}\n\xff\xfe\n{\"op\":\"status\"}\n"]);
        assert_eq!((lines.len(), bad), (1, 1), "the line before is served, the one after is not");
        assert_eq!(queued(&conn), "{\"ok\":false,\"error\":\"malformed request: not UTF-8\"}\n");
        assert!(conn.is_closing() && conn.unwritten() > 0, "closes only once the frame is out");
        assert_eq!(conn.interest(), Interest::WRITE);
        conn.advance(conn.unwritten());
        assert_eq!(conn.unwritten(), 0);
    }

    #[test]
    fn a_busy_connection_holds_its_pipeline_and_resumes_in_order() {
        let mut conn = conn();
        conn.feed(b"first\nsecond\n");
        assert_eq!(conn.next_frame().unwrap().unwrap(), "first");
        conn.dispatched();
        conn.feed(b"third\n");
        assert!(conn.next_frame().is_none(), "one job in flight: nothing comes out");
        assert!(conn.is_busy() && conn.interest().readable, "a small backlog keeps reading");
        conn.complete("{\"ok\":true}");
        assert_eq!(queued(&conn), "{\"ok\":true}\n");
        assert_eq!(conn.next_frame().unwrap().unwrap(), "second");
        assert_eq!(conn.next_frame().unwrap().unwrap(), "third");
        assert!(conn.next_frame().is_none());
    }

    #[test]
    fn a_pipeline_backlog_past_one_frame_gates_reads_until_the_job_completes() {
        let mut conn = conn();
        conn.feed(b"job\n");
        assert_eq!(conn.next_frame().unwrap().unwrap(), "job");
        conn.dispatched();
        let mut backlog = vec![b'y'; MAX / 2];
        backlog.push(b'\n');
        assert!(conn.feed(&backlog));
        assert!(!conn.feed(&backlog), "over a frame's worth buffered behind the job");
        assert!(!conn.interest().readable);
        conn.complete("done");
        assert_eq!(conn.next_frame().unwrap().unwrap().len(), MAX / 2);
        assert_eq!(conn.next_frame().unwrap().unwrap().len(), MAX / 2);
        assert!(conn.next_frame().is_none() && conn.interest().readable);
    }

    #[test]
    fn the_output_cursor_survives_partial_writes() {
        let mut conn = conn();
        assert_eq!((conn.unwritten(), conn.interest()), (0, Interest::READ));
        conn.push_frame("abc");
        conn.push_frame("de");
        assert_eq!((conn.output(), conn.interest()), (&b"abc\nde\n"[..], Interest::BOTH));
        conn.advance(2);
        assert_eq!((conn.output(), conn.unwritten()), (&b"c\nde\n"[..], 5));
        conn.push_frame("f");
        conn.advance(4);
        assert_eq!(conn.output(), b"\nf\n");
        conn.advance(3);
        assert_eq!((conn.unwritten(), conn.interest()), (0, Interest::READ));
        conn.push_frame("g");
        assert_eq!(conn.output(), b"g\n", "a drained buffer restarts from its head");
    }

    #[test]
    fn the_write_gate_stops_reads_until_the_client_drains() {
        let mut conn = conn();
        conn.push_frame(&"r".repeat(WRITE_GATE_BYTES));
        assert_eq!(conn.interest(), Interest::WRITE);
        conn.advance(2);
        assert_eq!(conn.interest(), Interest::BOTH);
    }
}
