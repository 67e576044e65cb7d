//! Codec errors for OpenFlow encode/decode.

use core::fmt;

/// Why a byte buffer could not be decoded as an OpenFlow message (or why a
/// message failed semantic validation before encode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecError {
    /// Buffer ended before the structure did.
    Truncated,
    /// The version byte is not OpenFlow 1.3 (0x04).
    BadVersion(u8),
    /// The header's message-type byte is not one this codec implements.
    UnknownType(u8),
    /// A length field is inconsistent (too small, not padded, or overruns
    /// the enclosing structure).
    BadLength,
    /// A structurally valid field holds a value the codec cannot represent
    /// (unknown OXM field, unknown action type, bad enum discriminant...).
    Unsupported,
    /// Semantically invalid contents (e.g. OXM prerequisites violated).
    Invalid(&'static str),
    /// A peer buffered more stream bytes than the deframer allows without
    /// ever completing a message — treated as a protocol violation so a
    /// misbehaving (or malicious) peer cannot grow memory without bound.
    BufferOverflow,
    /// A message of this many bytes does not fit the 16-bit header length
    /// field, so it cannot be encoded as one message.
    TooLong(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("message truncated"),
            CodecError::BadVersion(v) => write!(f, "unsupported OpenFlow version 0x{v:02x}"),
            CodecError::UnknownType(t) => write!(f, "unknown message type {t}"),
            CodecError::BadLength => f.write_str("inconsistent length field"),
            CodecError::Unsupported => f.write_str("unsupported field or value"),
            CodecError::Invalid(why) => write!(f, "invalid message: {why}"),
            CodecError::BufferOverflow => f.write_str("deframer buffer limit exceeded"),
            CodecError::TooLong(n) => write!(f, "{n}-byte message exceeds the 16-bit length field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Crate-wide codec result.
pub type Result<T> = core::result::Result<T, CodecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            CodecError::BadVersion(1).to_string(),
            "unsupported OpenFlow version 0x01"
        );
        assert_eq!(
            CodecError::Invalid("oxm prerequisite").to_string(),
            "invalid message: oxm prerequisite"
        );
    }
}
