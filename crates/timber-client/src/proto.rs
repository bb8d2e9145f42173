//! The wire protocol shared by `timberd` and `timber-client`.
//!
//! Frame = `u32` little-endian payload length + payload. Request
//! payload = opcode byte + body. Response payload = status byte
//! (`0` ok / `1` error) + result-or-message.

use std::io::{Read, Write};

/// Upper bound on a single frame's payload, so a corrupt or hostile
/// length prefix can't make either side allocate unbounded memory.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Response status byte: the request succeeded.
pub const STATUS_OK: u8 = 0;
/// Response status byte: the payload is a UTF-8 error message.
pub const STATUS_ERR: u8 = 1;

/// Request opcodes (the first payload byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// body: mode byte + query text → rendered XML + summary line.
    Query = 1,
    /// body: XML document → `u64` doc id.
    Insert = 2,
    /// body: `u64` doc id → empty.
    Delete = 3,
    /// body: `u64` doc id + XML document → `u64` replacement id.
    Replace = 4,
    /// body: empty → empty.
    Checkpoint = 5,
    /// body: mode byte + query text → EXPLAIN ANALYZE report.
    Explain = 6,
    /// body: empty → human-readable statistics text.
    Stats = 7,
    /// body: empty → `u64` pinned epoch. Pins the session snapshot.
    Snapshot = 8,
    /// body: empty → empty. Drops the session snapshot.
    Release = 9,
    /// body: empty → `(u64 id, u32 nodes)` records, 12 bytes each.
    Docs = 10,
}

impl Opcode {
    /// Decode a request's opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Some(match b {
            1 => Opcode::Query,
            2 => Opcode::Insert,
            3 => Opcode::Delete,
            4 => Opcode::Replace,
            5 => Opcode::Checkpoint,
            6 => Opcode::Explain,
            7 => Opcode::Stats,
            8 => Opcode::Snapshot,
            9 => Opcode::Release,
            10 => Opcode::Docs,
            _ => return None,
        })
    }
}

/// Plan mode selector carried in query/explain requests. Mirrors
/// `timber::PlanMode` without depending on the engine crates, so thin
/// clients stay dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Mode {
    /// The naive join-based plan, no rewrite.
    Direct = 0,
    /// The GROUPBY plan: the naive plan with the grouping rewrite
    /// applied.
    Grouped = 1,
}

impl Mode {
    /// Decode a request's mode byte.
    pub fn from_u8(b: u8) -> Option<Mode> {
        Some(match b {
            0 => Mode::Direct,
            1 => Mode::Grouped,
            _ => return None,
        })
    }

    /// The shell-facing names, matching the `.mode` command.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Direct => "direct",
            Mode::Grouped => "groupby",
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Mode, String> {
        Ok(match s {
            "direct" => Mode::Direct,
            "groupby" | "grouped" => Mode::Grouped,
            other => return Err(format!("unknown mode '{other}'")),
        })
    }
}

/// Read one frame. `Ok(None)` means the peer closed the connection
/// cleanly (EOF before any length byte).
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    // The length is the peer's claim, not yet bytes: reserve a bounded
    // amount and let the buffer grow with what actually arrives, so four
    // bytes on the wire cannot pin `MAX_FRAME` of memory.
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(64 * 1024));
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!(
                "frame announced {len} bytes, connection closed after {}",
                payload.len()
            ),
        ));
    }
    Ok(Some(payload))
}

/// Write one frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload too large")
    })?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload too large",
        ));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
        // The largest frame a peer may announce, ten bytes sent, then
        // close: still a short read, and only those ten bytes were
        // ever buffered.
        let mut buf = MAX_FRAME.to_le_bytes().to_vec();
        buf.extend_from_slice(b"ten bytes!");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"only4");
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
        // The largest frame a peer may announce, ten bytes sent, then
        // close: still a short read, and only those ten bytes were
        // ever buffered.
        let mut buf = MAX_FRAME.to_le_bytes().to_vec();
        buf.extend_from_slice(b"ten bytes!");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn opcodes_and_modes_round_trip() {
        for op in [
            Opcode::Query,
            Opcode::Insert,
            Opcode::Delete,
            Opcode::Replace,
            Opcode::Checkpoint,
            Opcode::Explain,
            Opcode::Stats,
            Opcode::Snapshot,
            Opcode::Release,
            Opcode::Docs,
        ] {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
        assert_eq!(Opcode::from_u8(0), None);
        assert_eq!(Opcode::from_u8(11), None);
        for m in [Mode::Direct, Mode::Grouped] {
            assert_eq!(Mode::from_u8(m as u8), Some(m));
            assert_eq!(m.name().parse::<Mode>().ok(), Some(m));
        }
        assert_eq!((Mode::Direct as u8, Mode::Grouped as u8), (0, 1));
        // Bytes 2 and 3 once named modes; like every other byte they
        // now decode to nothing and the server answers a typed error.
        for b in 2..=u8::MAX {
            assert_eq!(Mode::from_u8(b), None, "byte {b}");
        }
        for retired in ["materialized", "auto"] {
            assert!(retired.parse::<Mode>().is_err());
        }
    }
}
