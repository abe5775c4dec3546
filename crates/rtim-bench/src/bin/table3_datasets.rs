//! Table 3 — dataset statistics.
//!
//! Generates the four evaluation datasets (Reddit-like, Twitter-like,
//! SYN-O, SYN-N) at the requested scale and prints their statistics in the
//! format of Table 3 of the paper: users, actions, average response
//! distance and average cascade depth.
//!
//! ```text
//! cargo run --release -p rtim-bench --bin table3_datasets -- --scale small
//! ```

use rtim_bench::cli::Args;
use rtim_bench::{format_table, CommonArgs, COMMON_KEYS};
use rtim_datagen::dataset_statistics;

fn main() {
    let args = match Args::parse(COMMON_KEYS) {
        Ok(a) => a,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let common = CommonArgs::resolve(&args);

    let mut rows = Vec::new();
    for dataset in &common.datasets {
        let stream = common.generate(*dataset);
        let stats = dataset_statistics(dataset.name(), &stream);
        rows.push(vec![
            stats.name.clone(),
            stats.users.to_string(),
            stats.actions.to_string(),
            format!("{:.1}", stats.avg_response_distance),
            format!("{:.2}", stats.avg_depth),
            format!("{:.2}", stats.root_fraction),
        ]);
    }
    println!(
        "{}",
        format_table(
            "Table 3: statistics on datasets (generated at the requested scale)",
            &[
                "Dataset",
                "Users",
                "Actions",
                "Resp. dist.",
                "Avg. depth",
                "Root frac."
            ],
            &rows,
        )
    );
    println!(
        "Paper reference (full scale): Reddit 2,628,904 users / 48,104,875 actions / 404,714.9 / 4.58;\n\
         Twitter 2,881,154 / 9,724,908 / 294,609.4 / 1.87; SYN 1–5M users / 10,000,000 actions / 500,000 or 5,000 / ~2.5"
    );
}
