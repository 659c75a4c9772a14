//! Writers for the toolkit's standard output formats.
//!
//! The paper defines a common contract for all parsers: the input is a
//! plain text file with one raw log message per line (read by
//! [`crate::loader`]); the output is a pair of files — the *events file*
//! (one template per line, labelled `Event1..EventN`) and the
//! *structured log* (one line per message: line number, timestamp
//! column, event label).

use std::io::Write;

use crate::{Corpus, Parse, ParseError};

/// Writes the events file: `EventN<TAB>template` per line, in event-id
/// order.
///
/// # Errors
///
/// Returns [`ParseError::Io`] on write failure.
pub fn write_events_file<W: Write>(parse: &Parse, mut writer: W) -> Result<(), ParseError> {
    for (i, template) in parse.templates().iter().enumerate() {
        writeln!(writer, "Event{}\t{}", i + 1, template)?;
    }
    Ok(())
}

/// Writes the structured log: `line_no<TAB>-<TAB>EventN` per message,
/// with `Outlier` for messages no event claimed. The middle column is
/// the timestamp slot of the format; whole lines are parsed as content,
/// so it is always `-`.
///
/// # Errors
///
/// Returns [`ParseError::Io`] on write failure.
pub fn write_structured_file<W: Write>(
    corpus: &Corpus,
    parse: &Parse,
    writer: W,
) -> Result<(), ParseError> {
    write_structured_lines(corpus.line_numbers(), parse, writer)
}

/// [`write_structured_file`] from the messages' line numbers alone, for
/// a caller that holds a [`Parse`] but not the corpus it came from.
///
/// # Errors
///
/// Returns [`ParseError::Io`] on write failure.
pub fn write_structured_lines<W: Write>(
    line_numbers: impl IntoIterator<Item = usize>,
    parse: &Parse,
    mut writer: W,
) -> Result<(), ParseError> {
    for (line_no, assignment) in line_numbers.into_iter().zip(parse.assignments()) {
        match assignment {
            Some(event) => writeln!(writer, "{line_no}\t-\t{event}")?,
            None => writeln!(writer, "{line_no}\t-\tOutlier")?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParseBuilder, Template};

    #[test]
    fn events_file_is_one_template_per_line() {
        let mut b = ParseBuilder::new(0);
        b.add_template(Template::from_pattern("a * c"));
        b.add_template(Template::from_pattern("x y"));
        let mut out = Vec::new();
        write_events_file(&b.build(), &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "Event1\ta * c\nEvent2\tx y\n"
        );
    }

    #[test]
    fn structured_file_marks_outliers_and_missing_timestamps() {
        let corpus = Corpus::from_lines(["a b", "c d"]);
        let mut b = ParseBuilder::new(2);
        let e = b.add_template(Template::from_pattern("a b"));
        b.assign(0, e);
        let mut out = Vec::new();
        let parse = b.build();
        write_structured_file(&corpus, &parse, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "1\t-\tEvent1\n2\t-\tOutlier\n"
        );
        let mut renumbered = Vec::new();
        write_structured_lines(7..=8, &parse, &mut renumbered).unwrap();
        assert_eq!(renumbered, b"7\t-\tEvent1\n8\t-\tOutlier\n");
    }
}
