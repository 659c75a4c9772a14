//! The log parsers evaluated in the DSN'16 study, implemented natively in
//! Rust behind the common [`logparse_core::LogParser`] trait:
//!
//! * [`Slct`] — Simple Logfile Clustering Tool (Vaarandi, IPOM'03):
//!   frequent-word association clustering, two passes, outlier cluster;
//! * [`Iplom`] — Iterative Partitioning Log Mining (Makanju et al.,
//!   KDD'09 / TKDE'12): hierarchical partitioning by event size, token
//!   position, and bijection search;
//! * [`Lke`] — Log Key Extraction (Fu et al., ICDM'09): hierarchical
//!   clustering with weighted edit distance plus heuristic splitting;
//! * [`LogSig`] — (Tang et al., CIKM'11): word-pair potential local
//!   search into a fixed number of clusters;
//! * [`Drain`] — fixed-depth parse tree (He et al., ICWS'17), included as
//!   an extension: it is the parser the authors' follow-on LogPAI toolkit
//!   added after this study.
//!
//! All parsers are deterministic for a fixed configuration; LogSig's
//! clustering randomness is controlled by an explicit seed.
//!
//! # Example
//!
//! ```
//! use logparse_core::{Corpus, LogParser};
//! use logparse_parsers::Slct;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = Corpus::from_lines([
//!     "session opened for user root",
//!     "session opened for user guest",
//!     "session opened for user admin",
//!     "connection reset by peer",
//! ]);
//! let parse = Slct::builder().support_count(2).build().parse(&corpus)?;
//! assert_eq!(parse.templates()[0].to_string(), "session opened for user *");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ael;
mod drain;
mod iplom;
mod lenma;
mod lke;
mod logmine_parser;
mod logsig;
mod oracle;
mod slct;
mod spell;
mod streaming;

pub use ael::{Ael, AelBuilder};
pub use drain::{Drain, DrainBuilder};
pub use iplom::{Iplom, IplomBuilder};
pub use lenma::{LenMa, LenMaBuilder};
pub use lke::{DistanceThreshold, Lke, LkeBuilder};
pub use logmine_parser::{LogMine, LogMineBuilder};
pub use logsig::{LogSig, LogSigBuilder};
pub use oracle::Oracle;
pub use slct::{Slct, SlctBuilder, Support};
pub use spell::{Spell, SpellBuilder};
pub use streaming::{stream_drain, StreamingDrain, StreamingParser, StreamingSpell};

use logparse_core::LogParser;

/// All parsers of the original study, each with its default configuration.
///
/// Convenience for evaluation sweeps that iterate "the four methods".
pub fn study_parsers() -> Vec<Box<dyn LogParser>> {
    vec![
        Box::new(Slct::default()),
        Box::new(Iplom::default()),
        Box::new(Lke::default()),
        Box::new(LogSig::default()),
    ]
}

/// The extension parsers the follow-on LogPAI toolkit added after the
/// study: Drain, Spell, AEL, LenMa and LogMine, with default
/// configurations. Used by the extension ablations.
pub fn extension_parsers() -> Vec<Box<dyn LogParser>> {
    vec![
        Box::new(Drain::default()),
        Box::new(Spell::default()),
        Box::new(Ael::default()),
        Box::new(LenMa::default()),
        Box::new(LogMine::default()),
    ]
}

/// The batch parser called `name` (case-insensitive), at its default
/// configuration: the one roster and the one set of defaults behind
/// `logmine parse --parser NAME` and every `logmine jobs` worker, which
/// must agree for a distributed run to equal the in-process one.
pub fn batch_parser(name: &str) -> Option<Box<dyn LogParser>> {
    study_parsers()
        .into_iter()
        .chain(extension_parsers())
        .find(|parser| parser.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_parser_matches_the_cli_roster() {
        for name in [
            "slct", "iplom", "lke", "logsig", "drain", "spell", "ael", "lenma", "LogMine",
        ] {
            let parser = batch_parser(name).unwrap_or_else(|| panic!("{name}"));
            assert!(parser.name().eq_ignore_ascii_case(name));
        }
        assert!(batch_parser("nope").is_none());
    }

    #[test]
    fn study_parsers_are_the_papers_four() {
        let names: Vec<&str> = study_parsers().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["SLCT", "IPLoM", "LKE", "LogSig"]);
    }

    #[test]
    fn extension_parsers_are_the_logpai_additions() {
        let names: Vec<&str> = extension_parsers().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Drain", "Spell", "AEL", "LenMa", "LogMine"]);
    }
}
