# Convenience targets. `make verify` is the full local CI gate; the
# tier-1 gate from ROADMAP.md is `make check`.

CARGO ?= cargo

.PHONY: verify check build test fmt fmt-check clippy doc bench bench-engine bench-engine-build bench-all bench-all-build bench-all-gate bench-layers bench-layers-build bench-isa bench-isa-build bench-campaign bench-campaign-build bench-importance bench-importance-build bench-spill trace-roundtrip campaign campaign-resume campaign-fanout perfbench-test audit isa-audit clean

## Full verification: build + all tests + formatting + lints + docs,
## plus a build-only check of the bench targets, the dL1-vs-spill
## placement benchmark (fast enough to run, not just build), a lockstep
## audit of the full scheme × app matrix — ten paper presets plus two
## L2-spill descriptors — against the icr-check reference model, a
## byte-identical trace save/replay round-trip through icr-run, a
## kill-and-resume smoke of the checkpointed campaign service, a
## two-worker fan-out whose merge must be byte-identical to the
## single-process run, and the repository benchmark's own tests.
verify: build test fmt-check clippy doc bench-engine-build bench-all-build bench-layers-build bench-isa-build bench-campaign-build bench-importance-build bench-spill trace-roundtrip campaign-resume campaign-fanout perfbench-test audit
	@echo "verify: OK"

## Tier-1 gate (ROADMAP.md): release build + quiet tests.
check:
	$(CARGO) build --release
	$(CARGO) test -q

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

## API docs must build warnings-clean (broken intra-doc links, etc.).
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

## Criterion benchmarks (confined to the bench crate).
bench:
	$(CARGO) bench -p icr-bench

## Engine smoke benchmark: cold vs warm fig9, writes BENCH_engine.json.
bench-engine:
	$(CARGO) bench -p icr-bench --bench engine

## Compile the engine benchmark without running it (used by `verify`).
bench-engine-build:
	$(CARGO) bench -p icr-bench --bench engine --no-run

## Full-matrix cold benchmark: every figure through the pipelined
## scheduler, per-figure seconds + trajectory to BENCH_all.json.
bench-all:
	$(CARGO) bench -p icr-bench --bench all

## Compile the full-matrix benchmark without running it (used by `verify`).
bench-all-build:
	$(CARGO) bench -p icr-bench --bench all --no-run

## CI regression gate: fail if the cold total regresses >20% over the
## committed BENCH_all.json baseline.
bench-all-gate:
	ICR_BENCH_GATE=1 $(CARGO) bench -p icr-bench --bench all

## Layer benchmark: per paper scheme × gzip/mcf at 500k instructions,
## run_sim ns/inst and the memory side's ns/access from a fault-free
## tape replay (which must reproduce run_sim's dL1 stats), with a
## history row per run in BENCH_layers.json. Records, gates nothing.
bench-layers:
	$(CARGO) bench -p icr-bench --bench layers

## Compile the layer benchmark without running it (used by `verify`).
bench-layers-build:
	$(CARGO) bench -p icr-bench --bench layers --no-run

## Interpret-vs-replay benchmark over the execution-driven ISA kernels:
## cold RV32IM interpretation against replaying the saved .icrt trace,
## recorded to BENCH_isa.json. Asserts replay beats re-interpreting.
bench-isa:
	$(CARGO) bench -p icr-bench --bench isa

## Compile the ISA benchmark without running it (used by `verify`).
bench-isa-build:
	$(CARGO) bench -p icr-bench --bench isa --no-run

## Save a trace with --trace-out, replay it with --trace-in, and require
## the two simulation reports to be byte-identical — once for an
## execution-driven ISA kernel, once for a synthetic profile workload.
trace-roundtrip:
	$(CARGO) build --release -p icr-sim --bin icr-run
	./target/release/icr-run isa:matmul icr-ecc-pp-ls --insts 20000 \
		--json target/tr-live.json --trace-out target/tr.icrt
	./target/release/icr-run isa:matmul icr-ecc-pp-ls --insts 20000 \
		--json target/tr-replay.json --trace-in target/tr.icrt
	cmp target/tr-live.json target/tr-replay.json
	./target/release/icr-run gzip icr-p-ps-s --insts 20000 \
		--json target/tr-live.json --trace-out target/tr.icrt
	./target/release/icr-run gzip icr-p-ps-s --insts 20000 \
		--json target/tr-replay.json --trace-in target/tr.icrt
	cmp target/tr-live.json target/tr-replay.json
	@echo "trace-roundtrip: OK"

## A 1,200-trial deterministic fault-injection campaign.
campaign:
	$(CARGO) run --release -p icr-sim --bin icr-campaign -- --trials 100

## Crash-safety smoke for the checkpointed campaign service: run a
## sharded campaign straight through, run the same campaign again and
## SIGKILL it as soon as its first shard checkpoint appears (failing if
## the kill does not land mid-run), resume it, and require the two JSON
## reports to be byte-identical. (The integration tests in
## crates/icr-sim/tests/campaign_kill.rs do this at randomized kill
## points; this target is the fast release-build end-to-end check.)
CAMPAIGN_RESUME_ARGS = --schemes basep,icr-p-ps-s --apps gzip --trials 200 \
	--insts 20000 --shard-size 10 --seed 7 --quiet
campaign-resume:
	$(CARGO) build --release -p icr-sim --bin icr-campaign
	rm -rf target/ckpt-straight target/ckpt-killed
	rm -f target/cr-straight.json target/cr-killed.json
	./target/release/icr-campaign $(CAMPAIGN_RESUME_ARGS) \
		--checkpoint target/ckpt-straight --json target/cr-straight.json
	@set -e; \
	./target/release/icr-campaign $(CAMPAIGN_RESUME_ARGS) \
		--checkpoint target/ckpt-killed --json target/cr-killed.json & \
	pid=$$!; \
	n=0; \
	until ls target/ckpt-killed/shard-*.json >/dev/null 2>&1; do \
		n=$$((n + 1)); \
		if [ $$n -gt 3000 ]; then \
			echo "campaign-resume: no checkpoint after 30 s" >&2; \
			kill -9 $$pid 2>/dev/null; exit 1; \
		fi; \
		sleep 0.01; \
	done; \
	kill -9 $$pid 2>/dev/null || true; \
	status=0; wait $$pid || status=$$?; \
	if [ $$status -ne 137 ]; then \
		echo "campaign-resume: the campaign exited ($$status) before the kill landed" >&2; \
		exit 1; \
	fi; \
	echo "campaign-resume: SIGKILLed pid $$pid mid-run, after its first checkpoint"
	./target/release/icr-campaign $(CAMPAIGN_RESUME_ARGS) --resume \
		--checkpoint target/ckpt-killed --json target/cr-killed.json
	cmp target/cr-straight.json target/cr-killed.json
	@echo "campaign-resume: OK (killed-and-resumed output is byte-identical)"

## Checkpoint-overhead benchmark for the sharded campaign service:
## in-memory vs checkpointed vs resume, shard throughput and overhead
## recorded to BENCH_campaign.json. Asserts the durability cost stays
## under 5% of campaign wall time.
bench-campaign:
	$(CARGO) bench -p icr-bench --bench campaign

## Compile the campaign benchmark without running it (used by `verify`).
bench-campaign-build:
	$(CARGO) bench -p icr-bench --bench campaign --no-run

## Trials-to-target benchmark for importance-sampled fault injection:
## uniform vs forced-arrival + site-tilted proposal to the same Wilson
## CI width, recorded to BENCH_importance.json. Asserts the importance
## leg needs 3x fewer trials on at least half the cells.
bench-importance:
	$(CARGO) bench -p icr-bench --bench importance

## Compile the importance benchmark without running it (used by `verify`).
bench-importance-build:
	$(CARGO) bench -p icr-bench --bench importance --no-run

## Multi-host fan-out smoke: the same sharded campaign run once in a
## single process and once as two --worker halves into separate
## checkpoint directories, then merged restore-only; the two JSON
## reports must be byte-identical. The same campaign run in memory
## (no --checkpoint) must match the single-process report minus its
## one-line "sharding" member: both modes run one shard loop, and the
## shard size is the --batch default (--shard-size needs --checkpoint).
CAMPAIGN_FANOUT_ARGS = --schemes basep,icr-p-ps-s --apps gzip --trials 200 \
	--insts 20000 --batch 10 --seed 7 --importance --quiet
campaign-fanout:
	$(CARGO) build --release -p icr-sim --bin icr-campaign
	rm -rf target/fan-single target/fan-w0 target/fan-w1
	rm -f target/fan-single.json target/fan-merged.json target/fan-plain.json \
		target/fan-single-unsharded.json
	./target/release/icr-campaign $(CAMPAIGN_FANOUT_ARGS) \
		--checkpoint target/fan-single --json target/fan-single.json
	./target/release/icr-campaign $(CAMPAIGN_FANOUT_ARGS) \
		--worker 0/2 --checkpoint target/fan-w0
	./target/release/icr-campaign $(CAMPAIGN_FANOUT_ARGS) \
		--worker 1/2 --checkpoint target/fan-w1
	./target/release/icr-campaign merge --schemes basep,icr-p-ps-s \
		--apps gzip --trials 200 --insts 20000 --batch 10 --shard-size 10 \
		--seed 7 --importance --quiet --json target/fan-merged.json \
		target/fan-w0 target/fan-w1
	cmp target/fan-single.json target/fan-merged.json
	./target/release/icr-campaign $(CAMPAIGN_FANOUT_ARGS) \
		--json target/fan-plain.json
	sed '/^  "sharding": /d' target/fan-single.json \
		> target/fan-single-unsharded.json
	cmp target/fan-single-unsharded.json target/fan-plain.json
	@echo "campaign-fanout: OK (merged worker and in-memory output are byte-identical)"

## The repository benchmark's own tests: perfbench's unit tests, then
## its metric-name self-test (builds the benchmark crate and makes one
## short traced and untraced run). Catches library API changes that
## break the benchmark, which no workspace target compiles.
perfbench-test:
	$(CARGO) test --manifest-path perfbench/Cargo.toml
	python3 perfbench/test_run.py

## dL1-only vs L2-spill placement: per-app wall time plus the spill
## region's lifecycle counters, recorded to BENCH_spill.json. Asserts
## the region sees traffic and the bookkeeping stays under 2x the
## dL1-only run. Cheap enough that `verify` runs it outright.
bench-spill:
	$(CARGO) bench -p icr-bench --bench spill

## Lockstep reference-model audit: every dL1 access of the full paper
## scheme × app matrix diffed against the naive icr-check model. The
## incremental touched-set diff makes this cheap enough to run deep.
audit:
	$(CARGO) run --release -p icr-sim --bin icr-exp -- audit --insts 20000

## Same lockstep audit over the execution-driven ISA kernels.
isa-audit:
	$(CARGO) run --release -p icr-sim --bin icr-exp -- isa-audit --insts 20000

clean:
	$(CARGO) clean
