//! Client ↔ daemon protocol for the Puddles system.
//!
//! `libpuddles` talks to `puddled` over a UNIX-domain socket (or an
//! in-process endpoint) using the request/response messages defined here.
//! The paper's daemon returns puddle file descriptors via
//! `sendmsg(SCM_RIGHTS)`; this reproduction returns the puddle's file path
//! plus a grant token instead (see DESIGN.md, substitutions), so the
//! protocol is plain serde-serializable data.

pub mod frame;
pub mod types;

pub use frame::{read_frame, write_frame};
pub use types::*;

use serde::{Deserialize, Serialize};

/// A request sent from a client (`libpuddles`) to the daemon (`puddled`).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum Request {
    /// Introduces the client and its credentials; must be the first message.
    Hello {
        /// Client credentials used for access-control decisions.
        creds: Credentials,
        /// Requested per-connection in-flight request window (pipelining).
        /// `0` asks for the server default; the server clamps to its
        /// configured maximum and reports the grant in `Welcome`.
        max_in_flight: u32,
        /// Requested client-side connection-pool depth. `0` asks for the
        /// server default; clamped and granted like `max_in_flight`.
        pool_depth: u32,
        /// `true` when this `Hello` re-establishes a connection the client
        /// already had (retry/backoff path); counted in daemon stats.
        reconnect: bool,
    },
    /// Allocates a new puddle of `size` bytes.
    CreatePuddle {
        /// Puddle size in bytes (multiple of the page size).
        size: u64,
        /// Pool to attach the puddle to, if any.
        pool: Option<String>,
        /// What the puddle will be used for.
        purpose: PuddlePurpose,
        /// Access mode bits for the new puddle (UNIX-like, e.g. 0o600).
        mode: u32,
    },
    /// Requests access to an existing puddle.
    GetPuddle {
        /// The puddle to open.
        id: PuddleId,
        /// Whether write access is requested.
        writable: bool,
    },
    /// Frees a puddle, removing it from its pool and deleting its backing
    /// file.
    FreePuddle {
        /// The puddle to free.
        id: PuddleId,
    },
    /// Creates a pool with a fresh root puddle.
    CreatePool {
        /// Pool name (unique per daemon).
        name: String,
        /// Size of the root puddle in bytes.
        root_size: u64,
        /// Access mode bits for the pool's puddles.
        mode: u32,
    },
    /// Opens an existing pool.
    OpenPool {
        /// Pool name.
        name: String,
    },
    /// Deletes a pool and all of its puddles.
    DropPool {
        /// Pool name.
        name: String,
    },
    /// Registers a puddle as the client's log space (§4.1).
    RegLogSpace {
        /// The log-space puddle.
        puddle: PuddleId,
    },
    /// Registers (or re-registers) a pointer map for a persistent type.
    RegisterPtrMap {
        /// Declaration of the type's pointer fields.
        decl: PtrMapDecl,
    },
    /// Fetches every registered pointer map.
    GetPtrMaps,
    /// Exports a pool (its puddles plus metadata manifest) to a directory.
    ExportPool {
        /// Pool name.
        name: String,
        /// Destination directory (created if missing).
        dest: String,
    },
    /// Imports a previously exported pool under a new name.
    ImportPool {
        /// Directory containing the export manifest.
        src: String,
        /// Name for the imported pool.
        new_name: String,
    },
    /// Returns relocation information for a puddle (whether its pointers
    /// still need rewriting, and the old→new address translations to use).
    GetRelocation {
        /// The puddle being mapped.
        id: PuddleId,
    },
    /// Records that the client finished rewriting a puddle's pointers.
    MarkRewritten {
        /// The rewritten puddle.
        id: PuddleId,
    },
    /// Runs crash recovery immediately (normally done at daemon start).
    Recover,
    /// Returns daemon statistics.
    Stats,
    /// Returns the daemon's latency histograms and counters (the
    /// observability plane; `Stats` keeps the flat counter set).
    GetMetrics,
    /// A no-op round trip, used to measure daemon latency (§5.1).
    Ping,
}

/// A response from the daemon.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Reply to `Hello`: where this machine's global puddle space lives,
    /// plus the granted connection parameters.
    Welcome {
        /// Base virtual address of the global puddle space.
        space_base: u64,
        /// Size of the global puddle space in bytes.
        space_size: u64,
        /// Granted per-connection in-flight window: the requested value
        /// clamped to the server's configured maximum.
        max_in_flight: u32,
        /// Granted client connection-pool depth (`0` = no grant
        /// information, keep the client's current depth).
        pool_depth: u32,
    },
    /// A puddle was created or opened.
    Puddle(PuddleInfo),
    /// Pool metadata.
    Pool(PoolInfo),
    /// Registered pointer maps.
    PtrMaps(Vec<PtrMapDecl>),
    /// Result of an import: the new pool plus address translations.
    Imported {
        /// The freshly registered pool.
        pool: PoolInfo,
        /// Old→new address translations for every imported puddle.
        translations: Vec<Translation>,
    },
    /// Relocation state of a puddle.
    Relocation {
        /// `true` if the client must rewrite pointers before use.
        needs_rewrite: bool,
        /// Address translations to apply while rewriting.
        translations: Vec<Translation>,
    },
    /// Outcome of a recovery pass.
    Recovered(RecoveryReport),
    /// Daemon statistics.
    Stats(DaemonStats),
    /// Histogram snapshots and counters (reply to `GetMetrics`).
    Metrics(MetricsReport),
    /// The request failed.
    Error {
        /// Machine-readable error category.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

/// A client→daemon frame: a client-assigned id plus the request.
///
/// Ids are chosen by the client (any `u64` but 0, which the daemon reserves
/// for frames that answer no request; monotonically increasing in practice)
/// and echoed back verbatim in the matching [`ResponseEnvelope`]. The daemon
/// may complete and write responses in any order, so the id is the only way
/// to pair a response with its request.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RequestEnvelope {
    /// Client-assigned request id, echoed in the response.
    pub req_id: u64,
    /// The wrapped request.
    pub req: Request,
}

/// A daemon→client frame: the echoed id plus the response.
///
/// Every frame the daemon writes is one of these, including the acceptor's
/// `Busy` rejection at the connection cap, which answers no request and so
/// carries `req_id` 0.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ResponseEnvelope {
    /// The id of the request this response answers (0 for none).
    pub req_id: u64,
    /// The wrapped response.
    pub resp: Response,
}

/// A daemon→client frame as a client decodes it.
pub type ServerFrame = ResponseEnvelope;

impl Request {
    /// A `Hello` with default connection parameters (server picks the
    /// window and pool depth) on a fresh, first-time connection.
    pub fn hello(creds: Credentials) -> Request {
        Request::Hello {
            creds,
            max_in_flight: 0,
            pool_depth: 0,
            reconnect: false,
        }
    }
}

impl Response {
    /// Converts an error response into `Err`, passing others through.
    pub fn into_result(self) -> Result<Response, ProtoError> {
        match self {
            Response::Error { code, message } => Err(ProtoError { code, message }),
            other => Ok(other),
        }
    }
}

/// A daemon-reported failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Machine-readable error category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "daemon error ({:?}): {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// A bidirectional request/response channel to the daemon.
///
/// Implemented by the in-process endpoint (`puddled::LocalEndpoint`) and by
/// the UNIX-domain-socket client's pipelined endpoint.
pub trait Endpoint: Send + Sync {
    /// Sends one request and waits for its response.
    fn call(&self, req: &Request) -> std::io::Result<Response>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let reqs = vec![
            Request::Hello {
                creds: Credentials {
                    uid: 1000,
                    gid: 100,
                },
                max_in_flight: 64,
                pool_depth: 2,
                reconnect: true,
            },
            Request::hello(Credentials { uid: 1, gid: 2 }),
            Request::CreatePuddle {
                size: 2 << 20,
                pool: Some("p".into()),
                purpose: PuddlePurpose::Data,
                mode: 0o600,
            },
            Request::GetPuddle {
                id: PuddleId(0xdead_beef_dead_beef_dead_beef_dead_beefu128),
                writable: false,
            },
            Request::RegisterPtrMap {
                decl: PtrMapDecl {
                    type_id: 42,
                    type_name: "Node".into(),
                    size: 16,
                    fields: vec![PtrField {
                        offset: 8,
                        target_type: 42,
                    }],
                },
            },
            Request::Ping,
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(req, back);
        }
    }

    /// `GetMetrics` and its report survive the envelope round trip in both
    /// directions.
    #[test]
    fn get_metrics_roundtrips_in_envelopes() {
        let env = RequestEnvelope {
            req_id: 9,
            req: Request::GetMetrics,
        };
        let json = serde_json::to_string(&env).unwrap();
        assert_eq!(serde_json::from_str::<RequestEnvelope>(&json).unwrap(), env);

        let report = MetricsReport {
            series: vec![SeriesSnapshot {
                name: "service.Ping".into(),
                count: 3,
                sum_nanos: 300,
                p50_nanos: 100,
                p90_nanos: 110,
                p99_nanos: 120,
                max_nanos: 118,
            }],
            counters: vec![CounterSnapshot {
                name: "client_reconnects".into(),
                value: 1,
            }],
            trace_buffered: 9,
            trace_dropped: 0,
        };
        let env = ResponseEnvelope {
            req_id: 9,
            resp: Response::Metrics(report),
        };
        let json = serde_json::to_string(&env).unwrap();
        assert_eq!(
            serde_json::from_str::<ResponseEnvelope>(&json).unwrap(),
            env
        );
    }

    #[test]
    fn response_error_into_result() {
        let ok = Response::Ok.into_result().unwrap();
        assert_eq!(ok, Response::Ok);
        let err = Response::Error {
            code: ErrorCode::PermissionDenied,
            message: "nope".into(),
        }
        .into_result()
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::PermissionDenied);
    }

    #[test]
    fn request_envelope_roundtrips_through_json() {
        let env = RequestEnvelope {
            req_id: u64::MAX,
            req: Request::OpenPool { name: "p".into() },
        };
        let json = serde_json::to_string(&env).unwrap();
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn puddle_id_json_is_stable_hex() {
        let id = PuddleId(0x0123_4567_89ab_cdef_0123_4567_89ab_cdefu128);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "\"0123456789abcdef0123456789abcdef\"");
        let back: PuddleId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
