//! The repository benchmark: `igen-cli serve` driven end to end by a
//! seeded closed-loop client, plus a traced in-process replay that
//! times each layer on its own (the cost ladder).
//!
//! Run it through `python3 perfbench/run.py --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` from the repository root; the script
//! builds `igen-cli` and this package from source first.

pub mod check;
pub mod client;
pub mod e2e;
pub mod gen;
pub mod ladder;
pub mod oracle;
pub mod stats;
pub mod trace;
