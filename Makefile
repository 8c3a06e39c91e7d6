.PHONY: all build test chaos-smoke chaos-restart check-invariants conformance bench-perf bench-cloud check doc fmt clean

all: build

build:
	dune build

test: build
	dune runtest

# Deterministic quick availability sweep: exercises the fault injector,
# EMCall retry/timeout, the EMS watchdog and integrity containment.
chaos-smoke: build
	dune exec bin/hypertee_cli.exe -- chaos --smoke --seed 0xC4A05

# Rolling-restart recovery scenario: kill and cold-restart every EMS
# shard under live traffic, then verify zero lost enclaves, a silent
# differential oracle, and a clean end-of-run deep invariant sweep.
# Writes the report table to CHAOS_restart.txt; exits non-zero on any
# loss, divergence or violation.
chaos-restart: build
	dune exec bin/hypertee_cli.exe -- chaos --rolling --ops 400 --table CHAOS_restart.txt

# Wall-clock MB/s microbenchmarks of the crypto data plane; writes
# BENCH_perf.json so the throughput trajectory is tracked across PRs.
# Raw MB/s is machine-dependent, so `check` does not gate on it — but
# the speedup-vs-reference ratios are portable, and the run fails if
# any fresh ratio falls more than TOLERANCE percent below the
# committed BENCH_perf.json (the baseline is read before the file is
# rewritten). Override with e.g. `make bench-perf TOLERANCE=50`.
TOLERANCE ?= 30

bench-perf: build
	dune exec bin/hypertee_cli.exe -- perf --quick --json BENCH_perf.json \
		--baseline BENCH_perf.json --tolerance $(TOLERANCE)

# Enclave-as-a-service SLO sweep: the multi-tenant cloud driver
# (open-loop offered-load ladder + closed loop per shard count, warm
# pool + admission control) writing BENCH_cloud.json. Every sweep
# point ends with a deep invariant sweep and the differential
# oracle's verdict; the target exits non-zero on any violation or
# divergence surfaced by the churn.
bench-cloud: build
	dune exec bin/hypertee_cli.exe -- cloud --quick --json BENCH_cloud.json

# Differential oracle + invariant sweep: replays a clean and a
# fault-injected management workload under the EMCall oracle, then
# runs a reduced explorer pass. Deterministic; exits non-zero on any
# divergence or broken invariant.
check-invariants: build
	dune exec bin/hypertee_cli.exe -- check --calls 600 --seeds 12

# Secure-channel conformance: replay the canned handshake flights and
# record vectors from docs/PROTOCOL.md §7 (well-formed traffic must
# be accepted byte-exactly, every malformed case must be rejected
# with the spec'd error). Exits non-zero if any vector fails.
conformance: build
	dune exec bin/hypertee_cli.exe -- conformance

# The gate for a change: everything builds, the full test suite is
# green, the chaos smoke sweep completes
# without a hang, the rolling restart recovers every shard with
# nothing lost, the oracle/invariant pass holds, and the secure-
# channel conformance vectors all pass.
check: build test chaos-smoke chaos-restart check-invariants conformance

# API reference from the .mli doc comments, built with odoc into
# _build/default/_doc/_html. Skips with a notice when odoc is absent,
# so the target is safe on containers that only carry the compiler;
# CI installs odoc and fails the build on any documentation warning.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
		dune build @doc 2>&1 | tee /dev/stderr | grep -qi warning && exit 1 || true; \
		echo "docs: _build/default/_doc/_html/index.html"; \
	else \
		echo "odoc not installed; skipping doc build"; \
	fi

# Format the tree in place with the pinned ocamlformat (.ocamlformat).
# Skips with a notice when the binary is absent, so the target is safe
# on minimal containers that only carry the compiler toolchain.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune fmt; \
	else \
		echo "ocamlformat not installed; skipping (pinned version in .ocamlformat)"; \
	fi

clean:
	dune clean
