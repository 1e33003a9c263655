//! A small blocking client for the `pit-serve` protocol — what the
//! integration tests, benchmarks and examples drive the daemon with, and a
//! reference implementation for clients in other languages.
//!
//! Construction goes through [`ClientBuilder`] (connect/read timeouts,
//! write batching, a default model for protocol-v3 stream opens) and
//! errors are typed [`ServeError`]s; [`Client::connect`] remains as a thin
//! compatibility constructor with the defaults and an `io::Result`
//! signature. Against a model-zoo daemon, pick a model per stream with
//! [`Client::open_with_model`] (or set [`ClientBuilder::default_model`])
//! and inspect the registry with [`Client::list_models`].

use crate::protocol::{
    decode_server, encode_client, ClientFrame, FrameReader, ReadOutcome, ServerFrame,
    MAX_MODEL_NAME,
};
use pit_tensor::json::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What can go wrong talking to a daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Transport-level failure (connect, read, write).
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as a protocol frame.
    Protocol(String),
    /// The server closed the connection.
    Disconnected,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ServeError> for std::io::Error {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Io(io) => io,
            ServeError::Protocol(msg) => std::io::Error::new(std::io::ErrorKind::InvalidData, msg),
            ServeError::Disconnected => std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ),
        }
    }
}

/// Configures and connects a [`Client`].
///
/// ```no_run
/// use pit_serve::ClientBuilder;
/// use std::time::Duration;
///
/// let client = ClientBuilder::new()
///     .connect_timeout(Duration::from_secs(2))
///     .read_timeout(Duration::from_secs(10))
///     .write_batch(64)
///     .connect("127.0.0.1:7878")
///     .expect("daemon reachable");
/// # drop(client);
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    write_batch: usize,
    default_model: Option<String>,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        Self {
            connect_timeout: None,
            read_timeout: None,
            write_batch: 1,
            default_model: None,
        }
    }
}

impl ClientBuilder {
    /// A builder with the defaults: block forever on connect and read,
    /// write every frame immediately (batch size 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Gives up on `connect` after `timeout`. Requires the address to
    /// resolve to at least one socket address.
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Default budget for [`Client::recv`]: with a read timeout set,
    /// `recv` returns [`ServeError::Io`] (`TimedOut`) instead of blocking
    /// forever on a silent server. [`Client::recv_timeout`] overrides it
    /// per call.
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Stages up to `frames` outbound frames in a local buffer before
    /// writing them with one syscall. Any `recv*` call flushes first, so
    /// batching never deadlocks request/reply exchanges; call
    /// [`Client::flush`] to force bytes out early. `0` is treated as `1`.
    #[must_use]
    pub fn write_batch(mut self, frames: usize) -> Self {
        self.write_batch = frames.max(1);
        self
    }

    /// Model every [`Client::open`] selects (protocol v3). Unset, `open`
    /// sends the v1 frame and gets the server's default model.
    #[must_use]
    pub fn default_model(mut self, name: impl Into<String>) -> Self {
        self.default_model = Some(name.into());
        self
    }

    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on resolution, connect, or socket-option
    /// failures.
    pub fn connect(self, addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let stream = match self.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                let mut last = None;
                let mut connected = None;
                for sock in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sock, timeout) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to no socket addresses",
                        )
                    })
                })?
            }
        };
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: FrameReader::new(stream),
            staged: Vec::new(),
            staged_frames: 0,
            write_batch: self.write_batch,
            read_timeout: self.read_timeout,
            default_model: self.default_model,
        })
    }
}

/// One registry model's metadata, parsed from a MODELS_JSON reply (see
/// [`Client::list_models`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    /// Registry name — what OPEN's model field selects.
    pub name: String,
    /// `"f32"` or `"i8"`.
    pub kind: String,
    /// Input channels per timestep the model expects.
    pub input_channels: usize,
    /// Values per emitted head output.
    pub output_dim: usize,
    /// Receptive field of the served plan, in timesteps.
    pub receptive_field: usize,
    /// Streams currently open on this model.
    pub streams_open: u64,
    /// Whether a model-less OPEN gets this entry.
    pub default: bool,
}

impl ModelInfo {
    /// Parses a MODELS_JSON payload into the registry listing.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a missing/ill-typed field.
    pub fn parse_list(json: &str) -> Result<Vec<ModelInfo>, String> {
        let doc = Json::parse(json)?;
        let arr = doc
            .as_array()
            .ok_or("MODELS_JSON payload is not an array")?;
        arr.iter()
            .map(|entry| {
                let text = |key: &str| -> Result<String, String> {
                    entry
                        .get(key)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("model entry: missing string field '{key}'"))
                };
                let num = |key: &str| -> Result<f64, String> {
                    entry
                        .get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("model entry: missing number field '{key}'"))
                };
                Ok(ModelInfo {
                    name: text("name")?,
                    kind: text("kind")?,
                    input_channels: num("input_channels")? as usize,
                    output_dim: num("output_dim")? as usize,
                    receptive_field: num("receptive_field")? as usize,
                    streams_open: num("streams_open")? as u64,
                    default: matches!(entry.get("default"), Some(Json::Bool(true))),
                })
            })
            .collect()
    }
}

/// A blocking protocol client over one TCP connection. One connection can
/// multiplex any number of streams (client-chosen `u32` ids).
pub struct Client {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    staged: Vec<u8>,
    staged_frames: usize,
    write_batch: usize,
    read_timeout: Option<Duration>,
    default_model: Option<String>,
}

impl Client {
    /// Connects with the default [`ClientBuilder`] settings — the
    /// compatibility constructor predating the builder.
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        ClientBuilder::new().connect(addr).map_err(Into::into)
    }

    /// Sends one frame (staged until the write batch fills; see
    /// [`ClientBuilder::write_batch`]).
    ///
    /// # Errors
    ///
    /// Returns transport errors, and [`ServeError::Protocol`] for an OPEN
    /// whose model name is empty or longer than the wire's
    /// [`MAX_MODEL_NAME`]-byte limit (the `u16` length prefix cannot
    /// represent it).
    pub fn send(&mut self, frame: &ClientFrame) -> Result<(), ServeError> {
        if let ClientFrame::Open {
            model: Some(name), ..
        } = frame
        {
            if name.is_empty() {
                return Err(ServeError::Protocol("model name must not be empty".into()));
            }
            if name.len() > MAX_MODEL_NAME {
                return Err(ServeError::Protocol(format!(
                    "model name is {} bytes; the OPEN name field holds at most {MAX_MODEL_NAME}",
                    name.len()
                )));
            }
        }
        self.staged.extend_from_slice(&encode_client(frame));
        self.staged_frames += 1;
        if self.staged_frames >= self.write_batch {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes out any staged frames.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn flush(&mut self) -> Result<(), ServeError> {
        if !self.staged.is_empty() {
            self.writer.write_all(&self.staged)?;
            self.staged.clear();
        }
        self.staged_frames = 0;
        Ok(())
    }

    /// Sends OPEN for a connection-scoped stream id, selecting the
    /// builder's [`ClientBuilder::default_model`] if one was set (else the
    /// plain v1 frame, which gets the server's default model).
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn open(&mut self, stream_id: u32) -> Result<(), ServeError> {
        let model = self.default_model.clone();
        self.send(&ClientFrame::Open { stream_id, model })
    }

    /// Sends a protocol-v3 OPEN selecting a registry model by name for
    /// this stream, regardless of any builder default.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn open_with_model(
        &mut self,
        stream_id: u32,
        model: impl Into<String>,
    ) -> Result<(), ServeError> {
        self.send(&ClientFrame::Open {
            stream_id,
            model: Some(model.into()),
        })
    }

    /// Sends PUSH with `samples.len() / channels` timesteps.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn push(
        &mut self,
        stream_id: u32,
        channels: u32,
        samples: &[f32],
    ) -> Result<(), ServeError> {
        self.send(&ClientFrame::Push {
            stream_id,
            channels,
            samples: samples.to_vec(),
        })
    }

    /// Sends one protocol-v2 PUSH_N frame carrying timesteps for several
    /// streams: `entries` lists `(stream_id, timestep_count)` and
    /// `samples` concatenates the per-stream values in entry order. The
    /// server replies with coalesced EMIT_N frames on this connection from
    /// then on.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn push_n(
        &mut self,
        channels: u32,
        entries: &[(u32, u32)],
        samples: &[f32],
    ) -> Result<(), ServeError> {
        self.send(&ClientFrame::PushN {
            channels,
            entries: entries.to_vec(),
            samples: samples.to_vec(),
        })
    }

    /// Sends CLOSE for a stream.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn close(&mut self, stream_id: u32) -> Result<(), ServeError> {
        self.send(&ClientFrame::Close { stream_id })
    }

    /// Sends PING with a token the server echoes.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn ping(&mut self, token: u64) -> Result<(), ServeError> {
        self.send(&ClientFrame::Ping { token })
    }

    /// Requests a stats snapshot.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn stats(&mut self) -> Result<(), ServeError> {
        self.send(&ClientFrame::Stats)
    }

    /// Requests the model registry and blocks for the reply: sends
    /// LIST_MODELS, then reads until the MODELS_JSON frame arrives
    /// (EMIT/EMIT_N/CLOSED frames arriving first are NOT buffered — use
    /// this between exchanges, not mid-burst).
    ///
    /// # Errors
    ///
    /// As [`Client::recv`], plus [`ServeError::Protocol`] when the payload
    /// does not parse.
    pub fn list_models(&mut self) -> Result<Vec<ModelInfo>, ServeError> {
        self.send(&ClientFrame::ListModels)?;
        loop {
            match self.recv()? {
                ServerFrame::ModelsJson { json } => {
                    return ModelInfo::parse_list(&json).map_err(ServeError::Protocol)
                }
                ServerFrame::Error { code, message } => {
                    return Err(ServeError::Protocol(format!(
                        "LIST_MODELS refused: {code:?}: {message}"
                    )))
                }
                _ => continue,
            }
        }
    }

    /// Requests the daemon's per-stream event trace for `stream_id` on
    /// this connection and blocks for the reply: sends TRACE (protocol
    /// v4), then reads until the TRACE_JSON frame arrives (frames arriving
    /// first are NOT buffered — use this between exchanges, not
    /// mid-burst).
    ///
    /// # Errors
    ///
    /// As [`Client::recv`], plus [`ServeError::Protocol`] when the payload
    /// does not parse.
    pub fn trace(&mut self, stream_id: u32) -> Result<Vec<crate::TraceEvent>, ServeError> {
        self.send(&ClientFrame::Trace { stream_id })?;
        loop {
            match self.recv()? {
                ServerFrame::TraceJson { json } => {
                    return crate::TraceEvent::parse_list(&json).map_err(ServeError::Protocol)
                }
                ServerFrame::Error { code, message } => {
                    return Err(ServeError::Protocol(format!(
                        "TRACE refused: {code:?}: {message}"
                    )))
                }
                _ => continue,
            }
        }
    }

    /// Blocks until the next server frame arrives (bounded by the
    /// builder's [`ClientBuilder::read_timeout`], if one was set).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport errors (`TimedOut` when the read
    /// timeout lapses), [`ServeError::Disconnected`] when the server hung
    /// up, [`ServeError::Protocol`] when the body does not decode.
    pub fn recv(&mut self) -> Result<ServerFrame, ServeError> {
        self.flush()?;
        match self.read_timeout {
            None => loop {
                match self.recv_step()? {
                    Some(frame) => return Ok(frame),
                    None => continue,
                }
            },
            Some(timeout) => self.recv_timeout(timeout)?.ok_or_else(|| {
                ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no frame within the client read timeout",
                ))
            }),
        }
    }

    /// Waits up to `timeout` for the next server frame (`Ok(None)` on
    /// timeout).
    ///
    /// # Errors
    ///
    /// As [`Client::recv`].
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<ServerFrame>, ServeError> {
        self.flush()?;
        let deadline = std::time::Instant::now() + timeout;
        let result = loop {
            // Re-arm each read with the *remaining* budget, not the full
            // timeout: a peer dribbling partial frames must not restart the
            // clock on every byte.
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                break Ok(None);
            }
            self.reader
                .get_ref()
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
            match self.recv_step() {
                Ok(Some(frame)) => break Ok(Some(frame)),
                Ok(None) => {}
                Err(e) => break Err(e),
            }
        };
        self.reader.get_ref().set_read_timeout(None)?;
        result
    }

    /// One poll step: `Ok(Some)` on a frame, `Ok(None)` on a read timeout.
    fn recv_step(&mut self) -> Result<Option<ServerFrame>, ServeError> {
        match self.reader.poll() {
            Ok(ReadOutcome::Frame(body)) => decode_server(&body)
                .map(Some)
                .map_err(|e| ServeError::Protocol(e.to_string())),
            Ok(ReadOutcome::WouldBlock) => Ok(None),
            Ok(ReadOutcome::Eof) => Err(ServeError::Disconnected),
            Err(e) => Err(ServeError::Protocol(e.to_string())),
        }
    }
}

/// Connect, read and write timeout of [`http_get`].
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

/// One blocking HTTP/1.1 GET against the daemon's telemetry sidecar
/// (`/metrics`, `/stats`, `/healthz`, `/trace`). Returns `(status, body)`
/// whatever the status; callers decide what a non-200 means.
///
/// # Errors
///
/// Transport errors (each of connect, read and write times out after
/// 10 s), or `InvalidData` when the response is not UTF-8 or has no
/// parsable status line.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, HTTP_TIMEOUT)?;
    stream.set_read_timeout(Some(HTTP_TIMEOUT))?;
    stream.set_write_timeout(Some(HTTP_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: pit-serve\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let text = String::from_utf8(response).map_err(|_| bad("sidecar reply is not UTF-8"))?;
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad(&format!("bad response: {text}")))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    Ok((status, body))
}
