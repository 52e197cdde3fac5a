//! Figure 10: (a) DRAM bandwidth utilization, (b) row-buffer hit rate,
//! (c) request-buffer occupancy — baseline vs DX100 per workload.

use dx100_bench::{print_fig10, run_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let fig = run_figure(&args, false);
    print_fig10(&fig.rows);
    fig.emit(&args, "fig10");
}
