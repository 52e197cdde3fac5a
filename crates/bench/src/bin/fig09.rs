//! Figure 9: DX100 speedup over the multicore baseline for each workload.

use dx100_bench::{print_fig09, run_figure, summarize, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let fig = run_figure(&args, false);
    for r in &fig.rows {
        eprintln!("  {}", summarize("base ", &r.baseline.stats));
        eprintln!("  {}", summarize("dx100", &r.dx100.stats));
    }
    print_fig09(&fig.rows);
    fig.emit(&args, "fig09");
}
