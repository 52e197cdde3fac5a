//! Figure 11: (a) dynamic instruction reduction, (b) cache MPKI reduction.

use dx100_bench::{print_fig11, run_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let fig = run_figure(&args, false);
    print_fig11(&fig.rows);
    fig.emit(&args, "fig11");
}
