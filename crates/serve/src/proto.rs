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
pub(crate) const PROTO_VERSION: u32 = 1;

/// Maximum frame payload size (16 MiB — far above any module we print).
pub(crate) const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// A parsed protocol message: verb, headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Request or response verb (`compile`, `ping`, `shutdown`, `ok`,
    /// `error`, ...).
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
pub(crate) fn write_frame(w: &mut impl Write, msg: &Message) -> io::Result<()> {
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

/// Read one length-prefixed frame. `Ok(None)` on clean EOF before the
/// length prefix (the peer hung up without a request). A bad frame — a
/// declared length over [`MAX_FRAME`] (refused before anything is read or
/// allocated), a payload that is not UTF-8, or one that is no [`Message`]
/// — is an [`io::ErrorKind::InvalidData`] error carrying the reason; a
/// payload cut short is [`io::ErrorKind::UnexpectedEof`].
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<Message>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(bad_frame(format!(
            "frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload).map_err(|_| bad_frame("frame is not UTF-8"))?;
    Message::decode(&text)
        .map(Some)
        .ok_or_else(|| bad_frame("malformed message"))
}

fn bad_frame(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
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
        // No payload follows: the length alone is refused, nothing is read.
        for len in [MAX_FRAME + 1, u32::MAX] {
            let mut r: &[u8] = &len.to_le_bytes();
            let e = read_frame(&mut r).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{len}");
        }
    }

    #[test]
    fn truncated_payload_is_an_error_not_eof() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(b"short");
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn damaged_payloads_are_invalid_data_per_shape() {
        // Not UTF-8, version skew, empty verb, headerless garbage, missing
        // blank line.
        let mut shapes: Vec<&[u8]> = vec![&[0xff, 0xfe, 0x00, 0x80]];
        for bad in [
            "uu-serve/2 ping\n\n",
            "uu-serve/1 \n\n",
            "uu-serve/1 ping\nbad header\n\n",
            "no blank line",
        ] {
            shapes.push(bad.as_bytes());
        }
        for bad in shapes {
            let mut buf = Vec::new();
            buf.extend_from_slice(&(bad.len() as u32).to_le_bytes());
            buf.extend_from_slice(bad);
            let e = read_frame(&mut &buf[..]).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
    }
}
