GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet build test race bench-vet bench bench-diff tier2 fuzz vet-strict obs-race metrics-smoke serve-smoke cluster-smoke trace-smoke np-smoke

# Tier-1 gate: everything a PR must keep green.
check: vet build race bench-vet

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# hmvpbench is its own module (a replace back to this one), so `go build
# ./...` never compiles it; vet it so a library API change it calls fails
# here rather than first when the benchmark runs.
bench-vet:
	cd hmvpbench && GOPROXY=off GOTOOLCHAIN=local $(GO) vet ./...

# Tier-2 gate: the race detector across the tree, a $(FUZZTIME) smoke on
# every fuzz target, the stricter vet analyzers the concurrent hot
# path depends on, the telemetry layer under the race detector, and the
# warm-path performance diff against the committed baseline.
# Benchmarks only run on a tree that has passed it.
tier2: race fuzz vet-strict obs-race serve-smoke cluster-smoke trace-smoke np-smoke bench-diff

# Regression gate: re-measure the warm, cluster and np sections in one
# chambench run and check them against the committed BENCH_hmvp.json
# with one rule table (cmd/chambench/gate.go): Prepared/warm, Pack/warm
# and NpMatMul/warm must stay allocation-free and within 10% of their
# baseline ns/op, and the 2-shard cluster speedup must clear the 1.6x
# floor and stay within 25% of the baseline. Every failing rule is
# listed before the run exits non-zero.
bench-diff:
	$(GO) run ./cmd/chambench -compare BENCH_hmvp.json warm cluster np

obs-race:
	$(GO) vet ./internal/obs
	$(GO) test -race -count=1 ./internal/obs

vet-strict:
	$(GO) vet -copylocks -loopclosure ./...

fuzz:
	$(GO) test ./internal/mod -run '^$$' -fuzz '^FuzzModReduce$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ntt -run '^$$' -fuzz '^FuzzNTTRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ntt -run '^$$' -fuzz '^FuzzNegacyclicMul$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ring -run '^$$' -fuzz '^FuzzAutomorphNTT$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ring -run '^$$' -fuzz '^FuzzMulAccWide$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lwe -run '^$$' -fuzz '^FuzzPackLWEs$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rlwe -run '^$$' -fuzz '^FuzzDecomposeHoisted$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzHMVPDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzWireRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzWireClusterDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzWireTraceHeaderDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzShardRouter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chamnp -run '^$$' -fuzz '^FuzzEncMatrixShapes$$' -fuzztime $(FUZZTIME)

# End-to-end check of the live telemetry endpoint: boot chamsim with
# -metrics, scrape it, and require the stage-latency family.
metrics-smoke:
	$(GO) build -o /tmp/chamsim-smoke ./cmd/chamsim
	/tmp/chamsim-smoke -metrics 127.0.0.1:19099 -hold -repeat 2 hmvp 16 512 256 & \
	pid=$$!; \
	ok=1; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:19099/metrics > /tmp/chamsim-smoke.metrics 2>/dev/null \
			&& grep -q cham_hmvp_stage_seconds /tmp/chamsim-smoke.metrics; then ok=0; break; fi; \
		sleep 0.2; \
	done; \
	kill $$pid 2>/dev/null; \
	if [ $$ok -ne 0 ]; then echo "metrics-smoke: no cham_hmvp_stage_seconds in scrape"; exit 1; fi; \
	echo "metrics-smoke: ok ($$(grep -c '^cham_' /tmp/chamsim-smoke.metrics) series scraped)"

# boot-drain boots binary $(1) with flags $(2) on 127.0.0.1:$(3), waits
# for its listener to accept, sends SIGTERM, and requires a zero exit
# and "drained cleanly" in its output — the shared front-door drain path.
define boot-drain
	$(1) $(2) -addr 127.0.0.1:$(3) > $(1).log 2>&1 & \
	pid=$$!; \
	up=1; \
	for i in $$(seq 1 100); do \
		if bash -c 'exec 3<>/dev/tcp/127.0.0.1/$(3)' 2>/dev/null; then up=0; break; fi; \
		sleep 0.1; \
	done; \
	kill -TERM $$pid 2>/dev/null; \
	wait $$pid; rc=$$?; \
	if [ $$up -ne 0 ] || [ $$rc -ne 0 ] || ! grep -q 'drained cleanly' $(1).log; then \
		echo "$(1): did not boot and drain cleanly (listener up=$$((1-up)), exit $$rc)"; cat $(1).log; exit 1; \
	fi; \
	echo "$(1): booted on 127.0.0.1:$(3) and drained cleanly"
endef

# End-to-end check of the serving tier: the loopback example exercises
# the full handshake → keys → register → apply → drain flow over TCP,
# the chamserve binary is booted and drained with SIGTERM, and the
# remote benchmark path is built (not timed).
serve-smoke:
	$(GO) run ./examples/serve
	$(GO) build -o /tmp/chamserve-smoke ./cmd/chamserve
	$(call boot-drain,/tmp/chamserve-smoke,-n 256,19316)
	$(GO) build -o /tmp/chambench-smoke ./cmd/chambench

# End-to-end check of the tracer: boot chamsim with every apply sampled,
# pull /debug/traces, and require the trace JSON to carry the apply span
# and at least one bridged kernel stage span.
trace-smoke:
	$(GO) build -o /tmp/chamsim-trace-smoke ./cmd/chamsim
	/tmp/chamsim-trace-smoke -metrics 127.0.0.1:19098 -trace-sample 1 -hold -repeat 2 hmvp 16 512 256 & \
	pid=$$!; \
	ok=1; \
	for i in $$(seq 1 50); do \
		if curl -sf 'http://127.0.0.1:19098/debug/traces?format=records' > /tmp/chamsim-trace-smoke.json 2>/dev/null \
			&& grep -q '"name":"apply"' /tmp/chamsim-trace-smoke.json \
			&& grep -q '"name":"stage:' /tmp/chamsim-trace-smoke.json; then ok=0; break; fi; \
		sleep 0.2; \
	done; \
	if [ $$ok -eq 0 ] && ! curl -sf 'http://127.0.0.1:19098/debug/traces?format=chrome' | grep -q traceEvents; then ok=1; fi; \
	kill $$pid 2>/dev/null; \
	if [ $$ok -ne 0 ]; then echo "trace-smoke: no apply/stage spans at /debug/traces"; exit 1; fi; \
	echo "trace-smoke: ok ($$(grep -o '"span"' /tmp/chamsim-trace-smoke.json | wc -l) spans exported)"

# End-to-end check of the sharded tier: the loopback cluster example
# scatters a 4-tile matrix across two shard nodes through the gateway,
# verifies every gathered product against the cleartext, and drains the
# whole tier; the chamcluster binary is booted with two spawned shards
# and drained with SIGTERM.
cluster-smoke:
	$(GO) run ./examples/cluster
	$(GO) build -o /tmp/chamcluster-smoke ./cmd/chamcluster
	$(call boot-drain,/tmp/chamcluster-smoke,-spawn 2 -n 256,19320)

# End-to-end check of the chamnp array tier: the matmul example proves
# the prepared-once/transpose-free batched product (local + loopback
# chamserve, bit-exact vs the big.Int reference), and the inference
# example pushes a batch through the two-layer network on both backends.
np-smoke:
	$(GO) run ./examples/matmul -n 128 -batch 3
	$(GO) run ./examples/inference -n 128 -batch 2

# Hot-path benchmarks + the machine-readable BENCH_hmvp.json report:
# chambench regenerates the three gated sections (warm, cluster, np) and
# leaves every other section of the ledger as it was.
bench: tier2 metrics-smoke
	$(GO) test -run xxx -bench 'Software|PreparedMatVec' -benchmem .
	$(GO) run ./cmd/chambench warm cluster np
