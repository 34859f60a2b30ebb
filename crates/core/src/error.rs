//! Error type for the Puddles client library.

use puddles_pmem::faultio::CrashPoint;
use puddles_pmem::PmError;
use puddles_proto::ProtoError;
use std::fmt;
use std::io;

/// Result alias for client-library operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the Puddles client library.
#[derive(Debug)]
pub enum Error {
    /// An error from the persistent-memory substrate.
    Pm(PmError),
    /// The daemon rejected a request.
    Daemon(ProtoError),
    /// Transport-level I/O failure while talking to the daemon.
    Io(io::Error),
    /// The daemon returned a response of an unexpected kind.
    UnexpectedResponse(String),
    /// A pool or puddle ran out of space and could not grow.
    OutOfMemory(String),
    /// The transaction's log could not grow any further: the daemon refused
    /// to supply another log puddle for chaining (or a single entry exceeds
    /// a whole segment). A merely full segment never surfaces as this error
    /// — the transaction chains a fresh log puddle and keeps going.
    TxTooLarge {
        /// Bytes the rejected log entry would occupy.
        need: usize,
        /// Bytes still free in the transaction's active log segment.
        free: usize,
    },
    /// The requested object or address does not belong to this pool.
    InvalidAddress(u64),
    /// Persistent data failed a validity check.
    Corruption(String),
    /// A crash was injected at an armed crash point (tests only);
    /// persistent state is intentionally left as-is for recovery.
    CrashInjected(CrashPoint),
    /// A transaction was aborted by the user closure.
    Aborted(String),
    /// Transactions cannot be nested.
    NestedTransaction,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Pm(e) => write!(f, "persistent memory error: {e}"),
            Error::Daemon(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "daemon transport error: {e}"),
            Error::UnexpectedResponse(msg) => write!(f, "unexpected daemon response: {msg}"),
            Error::OutOfMemory(msg) => write!(f, "out of persistent memory: {msg}"),
            Error::TxTooLarge { need, free } => write!(
                f,
                "transaction too large: log entry needs {need} B but only {free} B remain in the log"
            ),
            Error::InvalidAddress(addr) => write!(f, "address {addr:#x} is not managed here"),
            Error::Corruption(msg) => write!(f, "corruption detected: {msg}"),
            Error::CrashInjected(point) => write!(f, "crash injected at `{point}`"),
            Error::Aborted(msg) => write!(f, "transaction aborted: {msg}"),
            Error::NestedTransaction => write!(f, "transactions cannot be nested"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Pm(e) => Some(e),
            Error::Daemon(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PmError> for Error {
    fn from(e: PmError) -> Self {
        match e {
            PmError::CrashInjected(point) => Error::CrashInjected(point),
            // LogFull is an internal chain-extension signal, not a failure:
            // the transaction layer intercepts it and grows the log. It is
            // deliberately NOT mapped to TxTooLarge — that error is raised
            // only when the daemon refuses another log puddle.
            other => Error::Pm(other),
        }
    }
}

impl From<ProtoError> for Error {
    fn from(e: ProtoError) -> Self {
        Error::Daemon(e)
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// Returns `true` if this error represents an injected crash, in which
    /// case persistent state must be left untouched for recovery.
    pub fn is_injected_crash(&self) -> bool {
        matches!(self, Error::CrashInjected(_))
            || matches!(self, Error::Pm(PmError::CrashInjected(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_injection_is_detected_through_conversions() {
        let e: Error = PmError::CrashInjected(CrashPoint::LogAppendCrash).into();
        assert!(e.is_injected_crash());
        let e: Error = PmError::Corruption("y".into()).into();
        assert!(!e.is_injected_crash());
    }

    #[test]
    fn display_formats_are_informative() {
        let e = Error::InvalidAddress(0x1234);
        assert!(e.to_string().contains("0x1234"));
        let e = Error::OutOfMemory("pool q".into());
        assert!(e.to_string().contains("pool q"));
        let e = Error::TxTooLarge {
            need: 4096,
            free: 128,
        };
        assert!(e.to_string().contains("transaction too large"));
    }

    #[test]
    fn log_full_is_not_tx_too_large() {
        // LogFull is the chain-extension signal; the conversion must keep it
        // a Pm error so only the transaction layer (when the daemon refuses
        // another log puddle) ever constructs TxTooLarge.
        let e: Error = PmError::LogFull {
            need: 100,
            free: 10,
        }
        .into();
        assert!(matches!(e, Error::Pm(PmError::LogFull { .. })));
    }
}
