//! E12: shard-per-core gateway runtime — drain throughput vs. shard count.
//!
//! Run with `--smoke` for the fast CI configuration.

use glimmer_bench::e12_shard_scaling;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (shard_counts, slots, sessions_per_slot, requests): (&[usize], usize, usize, usize) =
        if smoke {
            (&[1, 2, 4], 4, 1, 2)
        } else {
            (&[1, 2, 4, 8], 8, 2, 4)
        };
    println!("E12: shard-per-core gateway runtime (same workload, growing shard count)");
    println!(
        "{:>6} {:>6} {:>8} {:>8} {:>9} {:>9} {:>12} {:>13} {:>13} {:>8} {:>9}",
        "shards",
        "slots",
        "sessions",
        "reqs",
        "endorsed",
        "serve ms",
        "wall req/s",
        "total cyc",
        "critical cyc",
        "par.",
        "speedup"
    );
    let rows = e12_shard_scaling(shard_counts, slots, sessions_per_slot, requests, [42u8; 32]);
    for r in &rows {
        println!(
            "{:>6} {:>6} {:>8} {:>8} {:>9} {:>9.2} {:>12.0} {:>13} {:>13} {:>8.2} {:>8.2}x",
            r.shards,
            r.slots,
            r.sessions,
            r.requests,
            r.endorsed,
            r.serve_ms,
            r.wall_requests_per_s,
            r.total_drain_cycles,
            r.critical_path_cycles,
            r.cycle_parallelism,
            r.cycle_speedup_vs_serial
        );
    }
    let four = rows.iter().find(|r| r.shards == 4);
    if let Some(four) = four {
        assert!(
            four.cycle_speedup_vs_serial >= 2.0,
            "regression: 4-shard critical path fell below 2x the serial baseline"
        );
        println!(
            "4-shard critical path speedup {:.2}x (>= 2x bar holds)",
            four.cycle_speedup_vs_serial
        );
    }
    println!("(total cycles are bit-identical across rows: sharding moves work, never changes");
    println!(" it. 'critical cyc' is the busiest shard — the deterministic serving makespan —");
    println!(" and the wall-clock column shows the same scaling on multicore hosts.)");
}
