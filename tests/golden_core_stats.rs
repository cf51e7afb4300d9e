//! Debug-sized copy of `crates/icr-cpu/tests/golden_stats.rs`: the
//! core's statistics and memory-call digests over every app at 3k
//! instructions, four memories, four RUU/LSQ sizes and halting
//! memories, pinned to values recorded before the scheduler's rewrite.

#[path = "../crates/icr-cpu/tests/support/golden.rs"]
mod golden;

use icr_trace::apps::APP_NAMES;

const INSTS: usize = 3_000;

#[test]
fn core_statistics_match_the_golden_table() {
    golden::assert_table(
        &golden::table(&APP_NAMES, INSTS),
        &[
            ("perfect 8/4", 0xfabee1f982bd7c9a),
            ("perfect 16/8", 0xa3eac4145d90aeb7),
            ("perfect 32/16", 0x4f607bdf606c2b94),
            ("perfect 64/32", 0xe6b56e74272bfbb3),
            ("fixed-2/1 8/4", 0xd7640802f69ae10f),
            ("fixed-2/1 16/8", 0x3d117517b6441dbb),
            ("fixed-2/1 32/16", 0x8b8bd1ca8908dbb7),
            ("fixed-2/1 64/32", 0x7c23831066d19b6a),
            ("fixed-100/1 8/4", 0x2c999709105b98c9),
            ("fixed-100/1 16/8", 0xdaf3faba001afd5c),
            ("fixed-100/1 32/16", 0x9ff4d949ddd54f37),
            ("fixed-100/1 64/32", 0xe5ca00a5b8cbdf8c),
            ("random 8/4", 0x5038d415ab7d6446),
            ("random 16/8", 0xc31500acd2e4defd),
            ("random 32/16", 0x655184f5748d1dcc),
            ("random 64/32", 0x0435c5218ffa3b83),
        ],
    );
}

#[test]
fn halted_runs_match_the_golden_table() {
    golden::assert_table(
        &golden::halting(&APP_NAMES, INSTS, &[1, 37, 400]),
        &[
            ("halt@1", 0xf40936f05726512e),
            ("halt@37", 0x731326eebcce91e7),
            ("halt@400", 0xc97a87bbbd0dbf58),
        ],
    );
}
