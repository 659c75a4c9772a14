//! Quickstart: parse raw log messages with each method and inspect the
//! toolkit's standard output — an events file plus a structured log.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use logmine::core::{write_events_file, write_structured_file, Corpus, LogParser};
use logmine::parsers::{Iplom, Lke, LogSig, Slct};

// The HDFS excerpt from the paper's Fig. 1 (timestamps dropped: only the
// free-text content takes part in parsing).
const RAW_LOG: &[&str] = &[
    "BLOCK* NameSystem.allocateBlock: /user/root/randtxt4/_temporary/_task_200811101024_0010_m_000011_0/part-00011. blk_904791815409399662",
    "Receiving block blk_904791815409399662 src: /10.251.43.210:55700 dest: /10.251.43.210:50010",
    "Receiving block blk_904791815409399662 src: /10.250.18.114:52231 dest: /10.250.18.114:50010",
    "PacketResponder 0 for block blk_904791815409399662 terminating",
    "Received block blk_904791815409399662 of size 67108864 from /10.250.18.114",
    "PacketResponder 1 for block blk_904791815409399662 terminating",
    "Received block blk_904791815409399662 of size 67108864 from /10.251.43.210",
    "BLOCK* NameSystem.addStoredBlock: blockMap updated: 10.251.43.210:50010 is added to blk_904791815409399662 size 67108864",
    "BLOCK* NameSystem.addStoredBlock: blockMap updated: 10.250.18.114:50010 is added to blk_904791815409399662 size 67108864",
    "Verification succeeded for blk_904791815409399662",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = Corpus::from_lines(RAW_LOG);

    let parsers: Vec<Box<dyn LogParser>> = vec![
        Box::new(Slct::builder().support_count(2).build()),
        Box::new(Iplom::default()),
        Box::new(Lke::default()),
        Box::new(LogSig::builder().clusters(6).seed(42).build()),
    ];

    for parser in parsers {
        let parse = parser.parse(&corpus)?;
        println!("=== {} ===", parser.name());
        println!(
            "{} events, {} outliers",
            parse.event_count(),
            parse.outlier_count()
        );

        // The toolkit's two standard output files, written to stdout here.
        let mut events = Vec::new();
        write_events_file(&parse, &mut events)?;
        print!("{}", String::from_utf8(events)?);

        let mut structured = Vec::new();
        write_structured_file(&corpus, &parse, &mut structured)?;
        print!("{}", String::from_utf8(structured)?);
        println!();
    }
    Ok(())
}
