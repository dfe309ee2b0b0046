//! Wire protocol: length-prefixed frames carrying a small text message.
//!
//! A frame is a 4-byte little-endian payload length followed by that many
//! bytes of UTF-8. The payload is a [`Message`]: a status line
//! `uu-serve/1 <verb>`, zero or more `key: value` header lines, a blank
//! line, then a free-form body (for `compile` requests the body is the
//! module text; for responses it is the optimized module text).
//!
//! Frames are capped at [`MAX_FRAME`] bytes — a malformed or hostile
//! length prefix fails fast instead of allocating gigabytes.

use std::io::{self, Read, Write};

/// Protocol version carried in every status line.
pub const PROTO_VERSION: u32 = 1;

/// Maximum frame payload size (16 MiB — far above any module we print).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Largest declared length [`read_frame_lenient`] will drain to
/// resynchronize after an oversized frame (4 × [`MAX_FRAME`]). Beyond
/// this the stream position is declared unrecoverable: draining, say, a
/// `u32::MAX` prefix would stall the connection for gigabytes on the
/// word of a peer that has already proven itself confused.
pub const RESYNC_MAX: u32 = 4 * MAX_FRAME;

/// A parsed protocol message: verb, headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Request or response verb (`compile`, `stats`, `ping`, `shutdown`,
    /// `ok`, `error`).
    pub verb: String,
    /// Ordered `key: value` headers.
    pub headers: Vec<(String, String)>,
    /// Free-form body (module text, stats JSON, or empty).
    pub body: String,
}

impl Message {
    /// A message with the given verb and no headers or body.
    pub fn new(verb: &str) -> Message {
        Message {
            verb: verb.to_string(),
            headers: Vec::new(),
            body: String::new(),
        }
    }

    /// Append a header. Keys and values must be single-line.
    pub fn header(mut self, key: &str, value: impl std::fmt::Display) -> Message {
        self.headers.push((key.to_string(), value.to_string()));
        self
    }

    /// Set the body.
    pub fn with_body(mut self, body: impl Into<String>) -> Message {
        self.body = body.into();
        self
    }

    /// First value of a header, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serialize to the wire text.
    pub fn encode(&self) -> String {
        let mut s = format!("uu-serve/{PROTO_VERSION} {}\n", self.verb);
        for (k, v) in &self.headers {
            s.push_str(&format!("{k}: {v}\n"));
        }
        s.push('\n');
        s.push_str(&self.body);
        s
    }

    /// Parse the wire text; `None` on version skew or malformed framing.
    pub fn decode(text: &str) -> Option<Message> {
        let (head, body) = text.split_once("\n\n")?;
        // Split on `\n` alone: `lines()` would eat a value's trailing `\r`.
        let mut lines = head.split('\n');
        let status = lines.next()?;
        let (proto, verb) = status.split_once(' ')?;
        if proto != format!("uu-serve/{PROTO_VERSION}") || verb.is_empty() {
            return None;
        }
        let mut headers = Vec::new();
        for l in lines {
            let (k, v) = l.split_once(": ")?;
            headers.push((k.to_string(), v.to_string()));
        }
        Some(Message {
            verb: verb.to_string(),
            headers,
            body: body.to_string(),
        })
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    let payload = msg.encode();
    let len = payload.len();
    if len > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Read one length-prefixed frame, a [`FrameDefect`] as an
/// [`io::ErrorKind::InvalidData`] error — the client-side read path.
/// `Ok(None)` on clean EOF before the length prefix (peer hung up between
/// requests).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Message>> {
    read_frame_lenient(r)?
        .map(|m| m.map_err(|d| io::Error::new(io::ErrorKind::InvalidData, d.to_string())))
        .transpose()
}

/// Why a received frame could not be turned into a [`Message`]. Carried
/// by [`read_frame_lenient`] so a server can answer with a structured
/// `error` response instead of killing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDefect {
    /// Declared length exceeds [`MAX_FRAME`]; the payload was drained, so
    /// the stream is back at a frame boundary and the connection can
    /// continue.
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// Declared length exceeds even [`RESYNC_MAX`]; nothing was drained
    /// and the connection must be closed after the error response.
    Unrecoverable {
        /// The declared payload length.
        len: u32,
    },
    /// The payload was not valid UTF-8.
    NotUtf8,
    /// The payload was UTF-8 but not a valid message (version skew, bad
    /// status line, malformed header, missing blank line).
    Malformed,
}

impl FrameDefect {
    /// Whether the stream is positioned at a frame boundary afterwards —
    /// i.e. whether the connection can keep serving requests once the
    /// error response is sent.
    pub fn recoverable(&self) -> bool {
        !matches!(self, FrameDefect::Unrecoverable { .. })
    }
}

/// A single-line description, suitable for an error-response header.
impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDefect::Oversized { len } => {
                write!(f, "frame length {len} exceeds MAX_FRAME ({MAX_FRAME})")
            }
            FrameDefect::Unrecoverable { len } => {
                write!(f, "frame length {len} exceeds resync limit ({RESYNC_MAX})")
            }
            FrameDefect::NotUtf8 => f.write_str("frame is not UTF-8"),
            FrameDefect::Malformed => f.write_str("malformed message"),
        }
    }
}

/// Read one frame, degrading malformed input to a [`FrameDefect`]
/// instead of an error — the server-side read path.
///
/// Returns:
///
/// * `Ok(None)` — clean EOF before the length prefix;
/// * `Ok(Some(Ok(msg)))` — a well-formed frame;
/// * `Ok(Some(Err(defect)))` — a damaged frame the caller should answer
///   with a structured `error` response; check
///   [`recoverable`](FrameDefect::recoverable) to decide whether the
///   connection survives. Oversized-but-drainable payloads (up to
///   [`RESYNC_MAX`]) are consumed in fixed-size chunks so the stream is
///   left at the next frame boundary without ever allocating the
///   declared length;
/// * `Err(e)` — a genuine transport failure (including a peer that lied
///   about its length and hung up mid-payload).
pub fn read_frame_lenient(r: &mut impl Read) -> io::Result<Option<Result<Message, FrameDefect>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > RESYNC_MAX {
        return Ok(Some(Err(FrameDefect::Unrecoverable { len })));
    }
    if len > MAX_FRAME {
        // Drain the oversized payload in bounded chunks to resynchronize.
        let mut chunk = [0u8; 64 * 1024];
        let mut left = len as usize;
        while left > 0 {
            let take = left.min(chunk.len());
            r.read_exact(&mut chunk[..take])?;
            left -= take;
        }
        return Ok(Some(Err(FrameDefect::Oversized { len })));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let Ok(text) = String::from_utf8(payload) else {
        return Ok(Some(Err(FrameDefect::NotUtf8)));
    };
    Ok(Some(match Message::decode(&text) {
        Some(msg) => Ok(msg),
        None => Err(FrameDefect::Malformed),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_round_trips() {
        let m = Message::new("compile")
            .header("config", "uu4")
            .header("want-module", 1)
            .with_body("fn @k() -> void {\nbb0:\n  ret void\n}\n");
        assert_eq!(Message::decode(&m.encode()), Some(m));
    }

    #[test]
    fn empty_body_and_headers_round_trip() {
        let m = Message::new("ping");
        assert_eq!(Message::decode(&m.encode()), Some(m));
    }

    #[test]
    fn version_skew_and_damage_are_rejected() {
        assert_eq!(Message::decode("uu-serve/2 ping\n\n"), None);
        assert_eq!(Message::decode("uu-serve/1 \n\n"), None);
        assert_eq!(Message::decode("uu-serve/1 ping\nbad header\n\n"), None);
        assert_eq!(Message::decode("no blank line"), None);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let m = Message::new("compile").header("bench", "mandelbrot").with_body("body");
        let mut buf = Vec::new();
        write_frame(&mut buf, &m).unwrap();
        write_frame(&mut buf, &Message::new("ping")).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(m));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Message::new("ping")));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn oversized_length_prefix_fails_without_allocating() {
        let mut r: &[u8] = &u32::MAX.to_le_bytes();
        let e = read_frame(&mut r).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_an_error_not_eof() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(b"short");
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    // --- lenient read path: every malformed-frame shape must yield a
    // --- defect (answerable with a structured error), not a dead stream.

    #[test]
    fn lenient_oversized_frame_is_drained_and_the_stream_survives() {
        let len = MAX_FRAME + 3;
        let mut buf = Vec::new();
        buf.extend_from_slice(&len.to_le_bytes());
        buf.resize(buf.len() + len as usize, b'x');
        write_frame(&mut buf, &Message::new("ping")).unwrap();
        let mut r = &buf[..];
        let defect = read_frame_lenient(&mut r).unwrap().unwrap().unwrap_err();
        assert_eq!(defect, FrameDefect::Oversized { len });
        assert!(defect.recoverable());
        // Resynchronized: the next frame parses cleanly.
        assert_eq!(
            read_frame_lenient(&mut r).unwrap().unwrap().unwrap(),
            Message::new("ping")
        );
    }

    #[test]
    fn lenient_hostile_length_prefix_is_unrecoverable_without_allocating() {
        let mut r: &[u8] = &u32::MAX.to_le_bytes();
        let defect = read_frame_lenient(&mut r).unwrap().unwrap().unwrap_err();
        assert_eq!(defect, FrameDefect::Unrecoverable { len: u32::MAX });
        assert!(!defect.recoverable());
    }

    #[test]
    fn lenient_non_utf8_payload_is_a_defect_not_an_error() {
        let payload = [0xffu8, 0xfe, 0x00, 0x80];
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        write_frame(&mut buf, &Message::new("ping")).unwrap();
        let mut r = &buf[..];
        let defect = read_frame_lenient(&mut r).unwrap().unwrap().unwrap_err();
        assert_eq!(defect, FrameDefect::NotUtf8);
        assert!(defect.recoverable());
        assert_eq!(
            read_frame_lenient(&mut r).unwrap().unwrap().unwrap(),
            Message::new("ping")
        );
    }

    #[test]
    fn lenient_malformed_payloads_are_defects_per_shape() {
        // Version skew, empty verb, headerless garbage, missing blank line.
        for bad in [
            "uu-serve/2 ping\n\n",
            "uu-serve/1 \n\n",
            "uu-serve/1 ping\nbad header\n\n",
            "no blank line",
        ] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&(bad.len() as u32).to_le_bytes());
            buf.extend_from_slice(bad.as_bytes());
            let mut r = &buf[..];
            let defect = read_frame_lenient(&mut r).unwrap().unwrap().unwrap_err();
            assert_eq!(defect, FrameDefect::Malformed, "{bad:?}");
            assert!(defect.recoverable());
        }
    }

    #[test]
    fn lenient_clean_eof_and_truncation_mirror_the_strict_reader() {
        let mut r: &[u8] = &[];
        assert!(read_frame_lenient(&mut r).unwrap().is_none());
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(b"short");
        let mut t = &buf[..];
        assert!(read_frame_lenient(&mut t).is_err());
    }
}
