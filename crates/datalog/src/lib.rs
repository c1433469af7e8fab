//! # intune-datalog
//!
//! Wire-traffic **record/replay** for the selection daemon: the
//! regression-testing half of the continuous-learning loop.
//!
//! The paper's input-sensitive selectors are only trustworthy if a
//! retrained revision can be checked against *real* traffic, not
//! synthetic generators. This crate makes captured live sessions a
//! first-class artifact:
//!
//! * **[`recording`]** — a segmented, checksummed, crash-tolerant
//!   append-only log of inbound daemon requests (`intune-datalog/1`,
//!   same record codec and torn-tail discipline as the request
//!   journal). The daemon taps its event loop into a [`RecorderSink`]
//!   when started with `--record DIR`.
//! * **[`playback`]** — deterministic replay of a recording against any
//!   [`ReplayTarget`] (an in-process [`intune_serve::VectorService`], or
//!   a live daemon via the `intune_replay` binary) at adjustable speed,
//!   preserving capture order (and with it per-connection ordering).
//! * **divergence** — [`playback::divergence`] byte-compares the
//!   selections two targets gave the same recording and reduces them to
//!   a typed [`DivergenceReport`]: "does revision N+1 change any answer
//!   on yesterday's traffic" as one comparison.
//!
//! The on-disk format specification lives in `crates/datalog/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod playback;
pub mod recording;

pub use playback::{
    divergence, replay, Divergence, DivergenceReport, FrameResult, ReplayOptions, ReplayOutcome,
    ReplayTarget,
};
pub use recording::{
    load_recording, read_segment, segment_path, DatalogFormat, FrameBody, PrintedBody,
    RecordedFrame, RecorderSink, Recording, RecordingOptions, RecordingWriter, DATALOG_SCHEMA,
    DATALOG_VERSION, SEGMENT_PREFIX,
};
