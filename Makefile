# Developer entry points. `make test` is the tier-1 gate.

PY ?= python
export PYTHONPATH := src

.PHONY: test smoke test-attacks campaign-demo matrix-demo \
	scaling-demo distributed-demo serve-demo bench bench-solver \
	bench-attack bench-campaign perfbench-smoke table1-standard \
	table1-full

test:
	$(PY) -m pytest -x -q

smoke:
	$(PY) -m pytest -q -m smoke

# Attack-engine differential grid: DIP batching against the default
# attack, the serial DIP walk, cache keys, and a seq-sat cell on the
# `native` backend over the in-tree DIMACS engine (part of the tier-1
# suite too).
test-attacks:
	$(PY) -m pytest -q tests/test_dip_batching.py

# Cold campaign (real SAT attack), warm rerun (pure cache hits), then the
# cache summary — the whole parallel/caching story in three commands.
campaign-demo:
	$(PY) -m repro.experiments table1 --jobs 4 --cache-dir .repro-cache
	$(PY) -m repro.experiments table1 --jobs 4 --cache-dir .repro-cache
	$(PY) -m repro.experiments status --cache-dir .repro-cache

# A circuit x scheme x attack grid through the campaign executor, cold
# then warm (the rerun is pure cache hits) — the three-axis matrix story
# end to end: an embedded bench circuit plus a parametric synth circuit,
# TriLock plus a baseline and a rival scheme.
matrix-demo:
	$(PY) -m repro.cli matrix \
	    --circuit s27 --circuit "synth?gates=120&ffs=8&pis=4&pos=3" \
	    --scheme "trilock?kappa_s=1..2" --scheme "harpoon?kappa=2" \
	    --scheme "sarlock?g=1" \
	    --attack seq-sat --attack removal \
	    --max-dips 512 --jobs 2 --cache-dir .repro-cache
	$(PY) -m repro.cli matrix \
	    --circuit s27 --circuit "synth?gates=120&ffs=8&pis=4&pos=3" \
	    --scheme "trilock?kappa_s=1..2" --scheme "harpoon?kappa=2" \
	    --scheme "sarlock?g=1" \
	    --attack seq-sat --attack removal \
	    --max-dips 512 --jobs 2 --cache-dir .repro-cache

# Attack-cost scaling laws on a tiny 3-point synth sweep, cold then
# warm: fits T(s) and ndip ~ gates^e per scheme at fixed interface
# width and writes benchmarks/artifacts/BENCH_scaling.json.
scaling-demo:
	$(PY) -m repro.cli scaling --gates "80|160|320" \
	    --scheme "trilock?kappa_s=1&s_pairs=4" --scheme sarlock \
	    --ffs 8 --pis 5 --pos 4 --max-dips 64 \
	    --jobs 2 --cache-dir .repro-cache
	$(PY) -m repro.cli scaling --gates "80|160|320" \
	    --scheme "trilock?kappa_s=1&s_pairs=4" --scheme sarlock \
	    --ffs 8 --pis 5 --pos 4 --max-dips 64 \
	    --jobs 2 --cache-dir .repro-cache

# Scale-out smoke: the same matrix grid inline, through the local pool
# (the scheduler over one forked worker agent) and through the scheduler
# with two loopback `repro-lock worker` CLI agents, asserting identical
# results and an all-hits warm rerun.
distributed-demo:
	REPRO_SECRET=demo-fleet-secret $(PY) examples/distributed_smoke.py

# Campaign-service smoke: the `repro-lock serve` daemon + HTTP API with
# two loopback workers — two tenants complete, /metrics is live, and a
# warm resubmit finishes from the shared cache with zero cells shipped.
serve-demo:
	REPRO_SECRET=demo-fleet-secret $(PY) examples/serve_smoke.py

bench:
	$(PY) -m pytest benchmarks -q

# Attack hot-path microbench: arena CDCL conflicts/sec on PHP(8,7),
# word-packed fig3 error tables and fig7 FC vs per-pair and per-vector
# loops, the Fig. 7 cell's simulation program (slots, compile ms,
# ns/gate/cycle), the BMC window fold (ns per folded gate, exact gate
# and CSE hit counts), bmc_induction_proof (the bmc-verify key proved by
# one-step induction: exactly 5 folds, no solver call), the cut-hashed
# proof of Table I's s38584 S=10 key (exact pair counts, no solver
# call), end-to-end comb_sat phases. Writes
# benchmarks/artifacts/BENCH_solver.json.
bench-solver:
	$(PY) -m pytest benchmarks/bench_solver.py -q

# End-to-end attack-loop bench: phase rows of an oracle-dominated
# seq-sat cell (exact oracle call/pattern counts) and a pin-heavy DIP
# loop, plus the b12 Table I cells block by block: b12_ks2_pin_blocks
# (all 1024 DIPs in 256-DIP blocks) and b12_ks3_pin_blocks (the first
# 2048 DIPs in 1024-DIP blocks), each asserting its last block
# propagates at most 1.25x its first. Writes
# benchmarks/artifacts/BENCH_attack.json.
bench-attack:
	$(PY) -m pytest benchmarks/bench_attack.py -q

# Campaign bench: cold vs warm cache, pool vs distributed scale-out, the
# tiered warm rerun, and the pool's per-cell overhead (40 sleep(0) cells
# through --jobs 2 must take under 1 s). Writes
# benchmarks/artifacts/BENCH_campaign_*.json.
bench-campaign:
	$(PY) -m pytest benchmarks/bench_campaign.py -q

# One short run of each of the benchmark's workloads, for their output
# checks: n_dips = 2^(kappa_s*|I|) and key_ok (dip-loop, bmc-verify),
# Table II's census shape and Fig. 7's |FC - Eq. 15| <= 0.05
# (sat-free-sweep), and the warm replay matching the cold value. Fails
# unless every last line reports "correct": true.
perfbench-smoke:
	@for workload in dip-loop bmc-verify sat-free-sweep; do \
	    out=$$($(PY) perfbench/run.py --workload $$workload --seed 0 \
	        --seconds 10 --trace 0) || exit 1; \
	    printf '%s\n' "$$out"; \
	    printf '%s\n' "$$out" | tail -n 1 | grep -q '"correct": true' \
	        || { echo "perfbench-smoke: $$workload not correct" >&2; exit 1; }; \
	done

# Table I at --effort standard, recomputed: the b12 kappa_s=1 and
# kappa_s=2 rows are attacked for real and must pin exactly 32 and 1024
# DIPs and recover the correct key. A DIP loop whose per-DIP cost grows
# with the DIPs pinned takes minutes here instead of seconds.
table1-standard:
	@out=$$($(PY) -m repro.experiments table1 --effort standard \
	    --no-cache) || exit 1; \
	printf '%s\n' "$$out"; \
	for row in '1 +32' '2 +1024'; do \
	    printf '%s\n' "$$out" | grep -Eq "^b12 +5 +$$row +yes +[^ ]+ +yes +yes " \
	        || { echo "table1-standard: b12 row '$$row' not measured with the correct key" >&2; exit 1; }; \
	done

# Table I at --effort full, recomputed: table1-standard's two b12 rows
# plus s38584 kappa_s=1, which must pin exactly 2048 DIPs and recover
# the key. Its correct-key BMC check is proved by cut hashing; a check
# that falls back to the residual solve adds about a minute here.
table1-full:
	@out=$$($(PY) -m repro.experiments table1 --effort full \
	    --no-cache) || exit 1; \
	printf '%s\n' "$$out"; \
	for row in 'b12 +5 +1 +32' 'b12 +5 +2 +1024' 's38584 +11 +1 +2048'; do \
	    printf '%s\n' "$$out" | grep -Eq "^$$row +yes +[^ ]+ +yes +yes " \
	        || { echo "table1-full: row '$$row' not measured with the correct key" >&2; exit 1; }; \
	done
