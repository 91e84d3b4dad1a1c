//! A thin blocking client for the fleet protocol, used by `fleetctl`
//! and the test suites.

use crate::proto::{
    decode_response, encode_request, read_frame, Event, FrameRead, Request, RequestOp,
    SubmitRequest, DEFAULT_MAX_LINE_BYTES,
};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(std::io::Error),
    /// The connection ended where an event was expected (clean EOF or
    /// a frame truncated by the peer going away).
    Disconnected(String),
    /// The server's frame could not be interpreted.
    Protocol(String),
}

impl ClientError {
    /// `true` when the failure means the daemon went away mid-stream
    /// (transport error or EOF), as opposed to a frame the client could
    /// not interpret. `fleetctl` maps this onto its distinct
    /// connection-lost exit code.
    pub fn is_connection_lost(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Disconnected(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Disconnected(msg) => write!(f, "connection lost: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a fleet daemon.
pub struct FleetClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl FleetClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(FleetClient { writer, reader: BufReader::new(stream) })
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&mut self, op: RequestOp) -> std::io::Result<()> {
        let frame = encode_request(&Request::new(op));
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next event frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] on EOF, [`ClientError::Protocol`]
    /// on an undecodable frame, [`ClientError::Io`] on transport
    /// failure.
    pub fn next_event(&mut self) -> Result<Event, ClientError> {
        match read_frame(&mut self.reader, DEFAULT_MAX_LINE_BYTES)? {
            FrameRead::Frame(line) => decode_response(&line)
                .map(|response| response.event)
                .map_err(|e| ClientError::Protocol(format!("{:?}: {}", e.kind, e.message))),
            FrameRead::Eof => Err(ClientError::Disconnected("connection closed".to_string())),
            FrameRead::Truncated => {
                Err(ClientError::Disconnected("response truncated mid-frame".to_string()))
            }
            FrameRead::Oversized { at_least } => {
                Err(ClientError::Protocol(format!("oversized response frame ({at_least}+ bytes)")))
            }
        }
    }

    /// Submits a job and returns the server's first answer
    /// (`Accepted`, `Rejected`, or `Error`).
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn submit(&mut self, submit: SubmitRequest) -> Result<Event, ClientError> {
        self.send(RequestOp::Submit(submit))?;
        self.next_event()
    }

    /// Reads events until a terminal one and returns it, handing each
    /// intermediate event (progress, telemetry) to `on_event`.
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn wait_terminal(
        &mut self,
        mut on_event: impl FnMut(&Event),
    ) -> Result<Event, ClientError> {
        loop {
            let event = self.next_event()?;
            if event.is_terminal() {
                return Ok(event);
            }
            on_event(&event);
        }
    }
}
