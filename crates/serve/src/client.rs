//! A blocking client for the daemon's JSON-lines protocol.
//!
//! One [`ServeClient`] owns one TCP connection and issues requests
//! serially (the protocol is strictly request/response per connection);
//! open several clients for concurrency, as the integration tests do.

use crate::protocol::{Request, WireOptions};
use gpa_json::Json;
use gpa_pipeline::AnalysisJob;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default read/write timeout: long enough for a cold 21-app analysis,
/// short enough that a wedged daemon cannot hang `gpa request` forever.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A typed peer/daemon call failure, so callers can tell a retryable
/// stale pooled socket from a fatal transport error.
///
/// A connection parked in a pool can be closed by the far end at any
/// time (idle reaping, a restart); the first request on it then fails
/// even though the peer is healthy. That failure is
/// [`ClientError::StaleConnection`] — retry on a fresh connection
/// without spending retry budget. A failure on a *fresh* connection is
/// [`ClientError::Io`]: the peer (or the path to it) is actually
/// misbehaving, and retrying costs budget.
#[derive(Debug)]
pub enum ClientError {
    /// A pooled connection failed on reuse; retry on a fresh one.
    StaleConnection(io::Error),
    /// A fresh connection failed: dial, write, read, or deadline.
    Io(io::Error),
}

impl ClientError {
    /// Whether retrying (on a fresh connection) is expected to help
    /// without the peer itself recovering.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::StaleConnection(_))
    }

    /// The underlying transport error.
    pub fn as_io(&self) -> &io::Error {
        match self {
            ClientError::StaleConnection(e) | ClientError::Io(e) => e,
        }
    }

    /// Unwraps into the underlying transport error.
    pub fn into_io(self) -> io::Error {
        match self {
            ClientError::StaleConnection(e) | ClientError::Io(e) => e,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::StaleConnection(e) => write!(f, "stale pooled connection: {e}"),
            ClientError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.as_io())
    }
}

/// A connected daemon client.
///
/// The request and response buffers live on the client and are reused
/// across calls, so a long-lived connection issuing thousands of
/// requests (the bench, a forwarding shard) does not allocate per
/// frame.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reused outgoing frame buffer (`frame` + newline, one write).
    out: String,
    /// Reused incoming line buffer; [`ServeClient::request_line`]
    /// returns a borrow of it.
    line: String,
}

/// A parsed daemon response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Whether the body came from the report store.
    pub cached: bool,
    /// The `result` body (success) — compact-rendered this is
    /// byte-identical across cached and computed responses.
    pub result: Option<Json>,
    /// The error message (failure).
    pub error: Option<String>,
}

impl Response {
    fn from_frame(frame: &str) -> io::Result<Response> {
        let doc = Json::parse(frame).map_err(invalid)?;
        let ok = doc.field("ok").and_then(Json::as_bool).map_err(invalid)?;
        let cached = doc.get("cached").map_or(Ok(false), Json::as_bool).map_err(invalid)?;
        Ok(Response {
            ok,
            cached,
            result: doc.get("result").cloned(),
            error: doc.get("error").and_then(|e| e.as_str().ok()).map(str::to_string),
        })
    }

    /// Unwraps the success body.
    ///
    /// # Errors
    ///
    /// Maps a daemon-side error message into [`io::ErrorKind::Other`].
    pub fn into_result(self) -> io::Result<Json> {
        if self.ok {
            self.result.ok_or_else(|| invalid("response missing `result`"))
        } else {
            Err(io::Error::other(self.error.unwrap_or_else(|| "unspecified error".to_string())))
        }
    }
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl ServeClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::finish_connect(TcpStream::connect(addr)?)
    }

    /// Connects with a bound on the connection attempt itself (and the
    /// same default I/O timeouts), so dialing a dead peer costs one
    /// bounded stall instead of the kernel's SYN retry schedule.
    ///
    /// # Errors
    ///
    /// Address resolution failure, or a connection error/timeout.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        Self::finish_connect(TcpStream::connect_timeout(&addr, timeout)?)
    }

    fn finish_connect(writer: TcpStream) -> io::Result<Self> {
        // Frames are small and strictly request/response; Nagle +
        // delayed ACK would add ~40ms per round trip.
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        writer.set_write_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(ServeClient { reader, writer, out: String::new(), line: String::new() })
    }

    /// Overrides the read/write timeouts ([`None`] blocks forever —
    /// what a client deliberately waiting out a long `sleep` op wants).
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_timeouts(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)
    }

    /// Sends one raw frame and reads one response line (borrowed from
    /// the client's reused buffer — copy it out to keep it past the
    /// next call).
    ///
    /// # Errors
    ///
    /// I/O failure (including a timeout, surfaced as
    /// `WouldBlock`/`TimedOut`), or the daemon closing the connection.
    pub fn request_line(&mut self, frame: &str) -> io::Result<&str> {
        debug_assert!(!frame.contains('\n'), "frames are single lines");
        self.out.clear();
        self.out.push_str(frame);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())?;
        self.writer.flush()?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed connection"));
        }
        Ok(&self.line)
    }

    /// Sends a typed request and parses the response.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let line = self.request_line(&request.to_wire())?;
        Response::from_frame(line)
    }

    /// `analyze`: profile-and-advise `(app, variant)` on the daemon
    /// with default options (schema v1).
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn analyze(&mut self, app: &str, variant: usize) -> io::Result<Response> {
        self.analyze_with(app, variant, &WireOptions::default())
    }

    /// [`ServeClient::analyze`] with an explicit negotiated schema and
    /// advice options.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn analyze_with(
        &mut self,
        app: &str,
        variant: usize,
        options: &WireOptions,
    ) -> io::Result<Response> {
        self.request(&Request::Analyze {
            job: AnalysisJob::new(app, variant),
            options: options.clone(),
        })
    }

    /// `analyze_profile`: advise on a locally gathered profile document
    /// with default options (schema v1).
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn analyze_profile(
        &mut self,
        app: &str,
        variant: usize,
        profile: &Json,
    ) -> io::Result<Response> {
        self.analyze_profile_with(app, variant, profile, &WireOptions::default())
    }

    /// [`ServeClient::analyze_profile`] with an explicit negotiated
    /// schema and advice options.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn analyze_profile_with(
        &mut self,
        app: &str,
        variant: usize,
        profile: &Json,
        options: &WireOptions,
    ) -> io::Result<Response> {
        let frame =
            crate::protocol::analyze_profile_frame(app, variant, &profile.compact(), options);
        let line = self.request_line(&frame)?;
        Response::from_frame(line)
    }

    /// `profile_begin`: opens a chunked profile upload for
    /// `(app, variant)`. Returns the daemon-assigned upload id.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed response frame, or a daemon-side error.
    pub fn profile_begin(
        &mut self,
        app: &str,
        variant: usize,
        options: &WireOptions,
    ) -> io::Result<u64> {
        let response = self.request(&Request::ProfileBegin {
            job: AnalysisJob::new(app, variant),
            options: options.clone(),
        })?;
        let body = response.into_result()?;
        let id = body
            .field("upload_id")
            .and_then(Json::as_u64)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(id)
    }

    /// `profile_chunk`: adds one profile chunk (a `KernelProfile`
    /// document, typically covering a PC subrange) to an open upload.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn profile_chunk(&mut self, upload_id: u64, profile: &Json) -> io::Result<Response> {
        let frame = crate::protocol::profile_chunk_frame(upload_id, &profile.compact());
        let line = self.request_line(&frame)?;
        Response::from_frame(line)
    }

    /// `profile_end`: finalizes an upload — the daemon advises on the
    /// merged profile and answers exactly like `analyze_profile` of the
    /// merged document.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn profile_end(&mut self, upload_id: u64) -> io::Result<Response> {
        self.request(&Request::ProfileEnd { upload_id })
    }

    /// `profile_abort`: discards an open upload without analyzing it,
    /// freeing its per-connection slot.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn profile_abort(&mut self, upload_id: u64) -> io::Result<Response> {
        self.request(&Request::ProfileAbort { upload_id })
    }

    /// Drives a whole chunked upload: `profile_begin`, one
    /// `profile_chunk` per document, `profile_end`. Any daemon-side
    /// rejection along the way surfaces as an error — and aborts the
    /// upload first, so a failed attempt does not hold one of the
    /// connection's bounded upload slots.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed frame, or a rejected begin/chunk/end
    /// (e.g. an empty `chunks` slice).
    pub fn analyze_profile_chunked(
        &mut self,
        app: &str,
        variant: usize,
        chunks: &[Json],
        options: &WireOptions,
    ) -> io::Result<Response> {
        let upload_id = self.profile_begin(app, variant, options)?;
        for chunk in chunks {
            let accepted =
                self.profile_chunk(upload_id, chunk).and_then(|response| response.into_result());
            if let Err(e) = accepted {
                let _ = self.profile_abort(upload_id);
                return Err(e);
            }
        }
        let response = self.profile_end(upload_id)?;
        if !response.ok {
            // Backpressure rejections leave the upload alive daemon-side
            // so a manual retry can work; this helper gives up instead,
            // so abort (best-effort — for already-consumed ids the abort
            // is a harmless unknown-id error) and surface the failure as
            // the error the doc promises, not an ok-false body.
            let _ = self.profile_abort(upload_id);
            return Err(io::Error::other(
                response.error.unwrap_or_else(|| "unspecified error".to_string()),
            ));
        }
        Ok(response)
    }

    /// `status`: the daemon's metrics snapshot.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn status(&mut self) -> io::Result<Response> {
        self.request(&Request::Status)
    }

    /// `shutdown`: asks the daemon to stop.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response frame.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request(&Request::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_error_classifies_retryability() {
        let stale =
            ClientError::StaleConnection(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        let fresh = ClientError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"));
        assert!(stale.is_retryable());
        assert!(!fresh.is_retryable());
        assert!(stale.to_string().contains("stale pooled connection"));
        assert_eq!(fresh.as_io().kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(stale.into_io().kind(), io::ErrorKind::UnexpectedEof);
    }
}
