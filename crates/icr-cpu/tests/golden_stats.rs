//! Golden core statistics: the out-of-order core's `PipelineStats`, and
//! the order and cycle of every memory call it makes, pinned as FNV
//! digests over every app at 20k instructions, four memories and four
//! RUU/LSQ sizes, plus random-latency memories that halt the run at
//! several access counts. A scheduler change that moves any cycle of
//! any of these runs fails here. A debug-sized copy runs in the facade
//! package (`tests/golden_core_stats.rs`).

mod support;

use icr_trace::apps::APP_NAMES;
use support::golden;

const INSTS: usize = 20_000;

#[test]
fn core_statistics_match_the_golden_table() {
    golden::assert_table(
        &golden::table(&APP_NAMES, INSTS),
        &[
            ("perfect 8/4", 0xb2544cfbf9dd3fd6),
            ("perfect 16/8", 0xa6c92885954a1a2f),
            ("perfect 32/16", 0x5c5f22b35d1c5ee0),
            ("perfect 64/32", 0xf8fcbd6c6c5fc533),
            ("fixed-2/1 8/4", 0x8ef7f494827c5a81),
            ("fixed-2/1 16/8", 0x790c5fab73d5d3f8),
            ("fixed-2/1 32/16", 0x8b8642ccabf16baf),
            ("fixed-2/1 64/32", 0x706ac93b05c8c937),
            ("fixed-100/1 8/4", 0xd45b98c5b7b58c29),
            ("fixed-100/1 16/8", 0x1a52ebf33d086430),
            ("fixed-100/1 32/16", 0xb49857c984f8b6e9),
            ("fixed-100/1 64/32", 0x773a810f6518d591),
            ("random 8/4", 0xc338328dde9759b5),
            ("random 16/8", 0xa9959c155a9dbd65),
            ("random 32/16", 0x7ad5ca0eb60cd445),
            ("random 64/32", 0xea87b5450aebc106),
        ],
    );
}

#[test]
fn halted_runs_match_the_golden_table() {
    golden::assert_table(
        &golden::halting(&APP_NAMES, INSTS, &[1, 37, 400, 3_000]),
        &[
            ("halt@1", 0xf40936f05726512e),
            ("halt@37", 0x731326eebcce91e7),
            ("halt@400", 0xc97a87bbbd0dbf58),
            ("halt@3000", 0x5e9f2fb56439e155),
        ],
    );
}
