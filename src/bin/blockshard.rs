//! The `blockshard` CLI, the workspace's only binary: run, plan, check,
//! and list declarative `.scenario` sweep files, run the adversarial
//! campaign, and render the paper's figures and tables. All logic lives
//! in [`scenario::cli`]; this binary only forwards the arguments.
//!
//! ```sh
//! cargo run --release --bin blockshard -- run scenarios/fig2_quick.scenario
//! cargo run --release --bin blockshard -- plan scenarios/ablation_window.scenario
//! cargo run --release --bin blockshard -- render table_t2
//! cargo run --release --bin blockshard -- help
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(scenario::cli::run(&args));
}
