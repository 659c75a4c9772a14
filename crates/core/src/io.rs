//! Writers for the toolkit's standard output formats.
//!
//! The paper defines a common contract for all parsers: the input is a
//! plain text file with one raw log message per line (read by
//! [`crate::loader`]); the output is a pair of files — the *events file*
//! (one template per line, labelled `Event1..EventN`) and the
//! *structured log* (one line per message: line number, timestamp
//! column, event label).

use std::io::Write;

use logparse_obs::decimal;

use crate::{Corpus, EventId, Parse, ParseError};

/// Bytes the structured log gathers before each `write_all`.
const FILL: usize = 64 << 10;

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
    writer: W,
) -> Result<(), ParseError> {
    write_assignments(
        line_numbers,
        parse.assignments(),
        parse.event_count(),
        writer,
    )
}

/// The structured log of `assignments` against `events` templates, built
/// from bytes: each label's `"\t-\tEventN\n"` is rendered once, each line
/// number is written as integer digits, and the lines are gathered into
/// one reused buffer that goes out with one `write_all` per [`FILL`].
fn write_assignments<W: Write>(
    line_numbers: impl IntoIterator<Item = usize>,
    assignments: &[Option<EventId>],
    events: usize,
    mut writer: W,
) -> Result<(), ParseError> {
    let labels: Vec<String> = (1..=events).map(|n| format!("\t-\tEvent{n}\n")).collect();
    let mut buf = Vec::with_capacity(FILL + 64);
    let mut digits = [0u8; 20];
    for (line_no, assignment) in line_numbers.into_iter().zip(assignments) {
        buf.extend_from_slice(decimal(line_no as u64, &mut digits).as_bytes());
        match assignment.map(|event| (event, labels.get(event.index()))) {
            None => buf.extend_from_slice(b"\t-\tOutlier\n"),
            Some((_, Some(label))) => buf.extend_from_slice(label.as_bytes()),
            // No `Parse` constructor admits an id past its templates; if
            // one did, its line reads as `EventId`'s `Display` has it.
            Some((event, None)) => {
                buf.extend_from_slice(b"\t-\tEvent");
                let n = event.index().wrapping_add(1) as u64;
                buf.extend_from_slice(decimal(n, &mut digits).as_bytes());
                buf.push(b'\n');
            }
        }
        if buf.len() >= FILL {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParseBuilder, Template};
    use proptest::prelude::*;

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

    /// The previous writer, two nested `core::fmt` calls per line: the
    /// oracle the byte writer is held to.
    fn writeln_loop(line_numbers: &[usize], assignments: &[Option<EventId>]) -> Vec<u8> {
        let mut out = Vec::new();
        for (line_no, assignment) in line_numbers.iter().zip(assignments) {
            match assignment {
                Some(event) => writeln!(out, "{line_no}\t-\t{event}").unwrap(),
                None => writeln!(out, "{line_no}\t-\tOutlier").unwrap(),
            }
        }
        out
    }

    fn written(line_numbers: &[usize], assignments: &[Option<EventId>], events: usize) -> Vec<u8> {
        let mut out = Vec::new();
        write_assignments(line_numbers.iter().copied(), assignments, events, &mut out).unwrap();
        out
    }

    #[test]
    fn byte_writer_equals_the_writeln_loop_at_the_edges() {
        // Line numbers 0 and usize::MAX, event counts across a digit, an
        // outlier, and ids at and past `event_count()`.
        let line_numbers = [0, 1, 9, 10, 99, 100, usize::MAX - 1, usize::MAX];
        for events in [0, 1, 9, 10, 11, 99, 100, 101] {
            let ids = [0, 8, 9, 10, 98, 99, 100, events, events + 1, 1000];
            let mut assignments: Vec<Option<EventId>> =
                ids.iter().map(|&i| Some(EventId::new(i))).collect();
            assignments.insert(3, None);
            assignments.truncate(line_numbers.len());
            assert_eq!(
                written(&line_numbers, &assignments, events),
                writeln_loop(&line_numbers, &assignments),
                "{events} events"
            );
        }
        assert!(written(&[], &[], 3).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Long enough to cross several fills; ids run a few past the
        /// templates.
        #[test]
        fn byte_writer_equals_the_writeln_loop(
            events in 0usize..120,
            first in prop_oneof![
                Just(0usize),
                Just(1usize),
                0usize..usize::MAX / 2,
                Just(usize::MAX - 20_000),
            ],
            slots in proptest::collection::vec(0usize..125, 0..20_000),
        ) {
            let line_numbers: Vec<usize> = (0..slots.len()).map(|i| first + i).collect();
            let assignments: Vec<Option<EventId>> = slots
                .iter()
                .map(|&slot| (slot != 124).then_some(EventId::new(slot)))
                .collect();
            prop_assert_eq!(
                written(&line_numbers, &assignments, events),
                writeln_loop(&line_numbers, &assignments)
            );
        }
    }
}
