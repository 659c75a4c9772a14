//! Core data model for the `logmine` log parsing toolkit.
//!
//! This crate defines the shared vocabulary used by every log parser and
//! log-mining task in the workspace, following the standard input/output
//! contract of the DSN'16 study *"An Evaluation Study on Log Parsing and
//! Its Use in Log Mining"*:
//!
//! * input — a sequence of raw log messages ([`LogRecord`] / [`Corpus`]);
//! * output — a list of **log events** ([`Template`]) plus a **structured
//!   log** assigning every message to an event ([`Parse`]).
//!
//! The four parsers evaluated in the paper (SLCT, IPLoM, LKE, LogSig) all
//! implement the [`LogParser`] trait defined here, so downstream mining
//! tasks are parser-agnostic.
//!
//! # Example
//!
//! ```
//! use logparse_core::Corpus;
//!
//! let corpus = Corpus::from_lines([
//!     "Receiving block blk_1 src: /10.0.0.1:5000 dest: /10.0.0.2:5001",
//!     "Receiving block blk_2 src: /10.0.0.3:5000 dest: /10.0.0.4:5001",
//! ]);
//! assert_eq!(corpus.len(), 2);
//! assert_eq!(corpus.tokens(0)[0], "Receiving");
//! ```

// `deny`, not `forbid`: the one sanctioned exception is `mmap`, which
// opts back in at module level with per-call SAFETY comments (and the
// workspace lint's unsafe-allowlist admits exactly that file).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod intern;
mod io;
mod loader;
mod merge;
mod mmap;
pub mod parallel;
mod parser;
mod preprocess;
mod record;
mod simd;
mod template;

pub use error::ParseError;
pub use intern::{Interner, Symbol, TokenArena};
pub use io::{write_events_file, write_structured_file, write_structured_lines};
pub use loader::{
    corpus_cuts, count_corpus_lines, line_spans, CorpusCuts, FramedLine, LineDamage, LineFramer,
    TokenSpan, MAX_LINE_BYTES, MAX_SPANNED_LINE_BYTES,
};
/// The JSON document type streaming parsers snapshot into and restore from;
/// re-exported so parser crates need no direct `logparse-obs` edge.
pub use logparse_obs::Json;
pub use merge::{MergeDelta, TemplateMerge};
pub use parallel::{merge_chunks, ParallelDriver, ParallelReport};
pub use parser::{EventId, LogParser, Parse, ParseBuilder};
pub use preprocess::{MaskRule, Preprocessor};
pub use record::{Corpus, LogRecord, RecordRef, Tokenizer};
pub use template::{Template, TemplateToken};
