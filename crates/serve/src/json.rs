//! Minimal JSON value parsing for the wire protocol.
//!
//! The parser itself lives in [`cedar_obs::json`], next to the
//! workspace's JSON producers, and is the workspace's one JSON grammar:
//! the serving tier, the benchmark-history tooling and the exporters'
//! validator share one dialect (RFC 8259 bounded by [`MAX_DEPTH`] and
//! [`MAX_LEN`] — a hostile request line cannot blow the parse stack or
//! memory). This module re-exports it
//! under the serving tier's historical path.

pub use cedar_obs::json::{parse, Json, MAX_DEPTH, MAX_LEN};
