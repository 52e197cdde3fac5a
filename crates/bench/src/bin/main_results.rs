//! Figures 9, 10, and 11 from a single set of runs (each kernel is
//! simulated once per machine; the three figures are different views of
//! the same measurements). Prints the three figures' tables exactly as
//! `fig09`, `fig10` and `fig11` do, then every run's headline stats.

use dx100_bench::{print_fig09, print_fig10, print_fig11, run_figure, summarize, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let fig = run_figure(&args, false);
    let rows = &fig.rows;
    print_fig09(rows);
    print_fig10(rows);
    print_fig11(rows);

    println!("\n=== raw rows ===");
    for r in rows {
        println!(
            "{}",
            summarize(&format!("{} base ", r.name), &r.baseline.stats)
        );
        println!(
            "{}",
            summarize(&format!("{} dx100", r.name), &r.dx100.stats)
        );
    }
    fig.emit(&args, "main_results");
}
