//! Online parsing: feed log messages one at a time (as a production
//! pipeline would) and watch the templates refine — including how a
//! parse tree behaves on an evolving system where new event types
//! appear mid-stream. Halfway through, the Drain parser is checkpointed
//! (its state written as a JSON blob) and restored into a second parser,
//! which then groups the rest of the stream exactly as the original does.
//! Last, both parsers read a stream with a fresh id in every line: their
//! symbol tables keep the tokens the templates retain and drop the ids,
//! so the vocabulary stays bounded however long the stream runs.
//!
//! ```sh
//! cargo run --release --example streaming_parse
//! ```

use logmine::datasets::zookeeper;
use logmine::obs::Json;
use logmine::parsers::{StreamingDrain, StreamingParser, StreamingSpell};

fn main() {
    let data = zookeeper::generate(2_000, 11);

    let mut drain = StreamingDrain::default();
    let mut spell = StreamingSpell::default();
    let mut restored: Option<StreamingDrain> = None;
    let mut disagreements = 0;

    for i in 0..data.len() {
        let line = data.line(i);
        let id = drain.observe(line);
        spell.observe(line);
        if let Some(restored) = restored.as_mut() {
            disagreements += usize::from(restored.observe(line) != id);
        }
        if i == data.len() / 2 {
            // Snapshot → blob text → restore: the two forms of the state.
            let blob = drain.snapshot().to_string();
            let doc = Json::parse(&blob).expect("a snapshot is valid JSON");
            restored = Some(StreamingDrain::from_json(&doc).expect("a snapshot restores"));
            println!(
                "checkpoint after {:4} messages: {} bytes of blob",
                i + 1,
                blob.len()
            );
        }
        if [10, 100, 1000, data.len() - 1].contains(&i) {
            println!(
                "after {:4} messages: Drain knows {:3} events, Spell {:3}",
                i + 1,
                drain.group_count(),
                spell.group_count()
            );
        }
    }

    if let Some(restored) = &restored {
        println!(
            "restored parser: {disagreements} disagreement(s) over the second half, \
             same state at the end: {}",
            restored.snapshot() == drain.snapshot()
        );
    }
    println!("\nfirst Drain templates discovered:");
    for template in drain.templates().iter().take(8) {
        println!("  {template}");
    }
    println!(
        "\nground truth: {} event types exercised",
        data.distinct_events()
    );

    println!("\na fresh id in every line:");
    let mut drain = StreamingDrain::default();
    let mut spell = StreamingSpell::default();
    for n in 1..=200_000u64 {
        let line = format!("session id={n} opened for tenant-{}", n % 3);
        drain.observe(&line);
        spell.observe(&line);
        if [1_000, 10_000, 100_000, 200_000].contains(&n) {
            println!(
                "after {n:6} lines: Drain holds {:4} tokens for {} events, Spell {:4} for {}",
                drain.vocabulary(),
                drain.group_count(),
                spell.vocabulary(),
                spell.group_count()
            );
        }
    }
}
