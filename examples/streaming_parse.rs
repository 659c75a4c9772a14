//! Online parsing: feed log messages one at a time (as a production
//! pipeline would) and watch the templates refine — including how a
//! parse tree behaves on an evolving system where new event types
//! appear mid-stream.
//!
//! ```sh
//! cargo run --release --example streaming_parse
//! ```

use logmine::datasets::zookeeper;
use logmine::parsers::{StreamingDrain, StreamingParser, StreamingSpell};

fn main() {
    let data = zookeeper::generate(2_000, 11);

    let mut drain = StreamingDrain::default();
    let mut spell = StreamingSpell::default();

    for i in 0..data.len() {
        let line = data.corpus.record(i).content;
        drain.observe(line);
        spell.observe(line);
        if [10, 100, 1000, data.len() - 1].contains(&i) {
            println!(
                "after {:4} messages: Drain knows {:3} events, Spell {:3}",
                i + 1,
                drain.group_count(),
                spell.group_count()
            );
        }
    }

    println!("\nfirst Drain templates discovered:");
    for template in drain.templates().iter().take(8) {
        println!("  {template}");
    }
    println!(
        "\nground truth: {} event types exercised",
        data.distinct_events()
    );
}
