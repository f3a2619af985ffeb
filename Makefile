# Development entry points. `make check` is the CI gate: build, go vet,
# manetlint (the project's determinism analyzers), the test suite, and the
# test suite again under the race detector.

GO ?= go

.PHONY: build test race vet lint lint-json check bench-smoke bench-test fuzz-smoke faults-smoke resume-smoke parallel-smoke fleet-smoke traffic-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Full analyzer suite over the whole module (cmd/ included), gated on the
# committed baseline: only findings whose IDs are not recorded in
# lint.baseline.json fail. Regenerate the baseline (after review!) with
#   go run ./cmd/manetlint -write-baseline lint.baseline.json ./...
lint:
	$(GO) run ./cmd/manetlint -baseline lint.baseline.json ./...

# Same run, rendered as a JSON findings report (position-stable IDs, scope,
# baselined marks). CI uploads it as an artifact.
lint-json:
	$(GO) run ./cmd/manetlint -json -baseline lint.baseline.json ./... > manetlint.json

# Fuzz smoke: each fuzz target explores for 10 s beyond its seed corpus
# (which plain `go test` already runs). A short minimization budget keeps
# the fuzzer executing instead of shrinking every new corpus entry.
# `go test -fuzz` accepts one target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTable$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/hello
	$(GO) test -run '^$$' -fuzz '^FuzzGilbertElliott$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/channel
	$(GO) test -run '^$$' -fuzz '^FuzzSelectKernels$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzDegreesAt$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/radio

# Tiny deterministic fault-injection sweep: the loss/delay/churn and
# buffer-zone experiments at smoke scale, run twice and compared — any
# nondeterminism in the non-ideal channel path fails the diff.
faults-smoke:
	$(GO) run ./cmd/paperfig -exp faults -quick -reps 2 -duration 8 > /tmp/faults_a.txt
	$(GO) run ./cmd/paperfig -exp faults -quick -reps 2 -duration 8 > /tmp/faults_b.txt
	cmp /tmp/faults_a.txt /tmp/faults_b.txt
	$(GO) run ./cmd/paperfig -exp bufferzone -quick -reps 2 -duration 8 > /tmp/bufzone_a.txt
	$(GO) run ./cmd/paperfig -exp bufferzone -quick -reps 2 -duration 8 > /tmp/bufzone_b.txt
	cmp /tmp/bufzone_a.txt /tmp/bufzone_b.txt

# Checkpoint / shard determinism smoke. A quick sweep is interrupted
# halfway (-maxruns caps computed runs and drains exactly like SIGINT,
# exiting 130), resumed from its store, and the resumed output is
# byte-compared against an uninterrupted run. The same sweep computed as
# two disjoint shards and merged with sweepctl must render the identical
# bytes, with every record checksum verifying. Binaries are built first:
# `go run` collapses the child's exit code to 1, and the 130 is asserted.
SMOKE := /tmp/mstc_resume_smoke
PFLAGS := -exp fig6 -quick -reps 2 -duration 8
resume-smoke:
	rm -rf $(SMOKE) && mkdir -p $(SMOKE)
	$(GO) build -o $(SMOKE)/paperfig ./cmd/paperfig
	$(GO) build -o $(SMOKE)/sweepctl ./cmd/sweepctl
	$(SMOKE)/paperfig $(PFLAGS) > $(SMOKE)/direct.txt
	$(SMOKE)/paperfig $(PFLAGS) -store $(SMOKE)/store -maxruns 7; test $$? -eq 130
	$(SMOKE)/paperfig $(PFLAGS) -store $(SMOKE)/store -resume > $(SMOKE)/resumed.txt
	cmp $(SMOKE)/direct.txt $(SMOKE)/resumed.txt
	$(SMOKE)/paperfig $(PFLAGS) -store $(SMOKE)/shard0 -shard 0/2
	$(SMOKE)/paperfig $(PFLAGS) -store $(SMOKE)/shard1 -shard 1/2
	$(SMOKE)/sweepctl merge -into $(SMOKE)/merged $(SMOKE)/shard0 $(SMOKE)/shard1
	$(SMOKE)/sweepctl verify $(SMOKE)/store $(SMOKE)/merged
	$(SMOKE)/paperfig $(PFLAGS) -store $(SMOKE)/merged -resume > $(SMOKE)/merged.txt
	cmp $(SMOKE)/direct.txt $(SMOKE)/merged.txt

# Region-parallel engine smoke: the same quick figure sweep on the serial
# engine and on the domain-decomposed engine (2x2 domains, 4 workers) must
# render byte-identical output — once on the ideal channel and once on the
# faulty-channel sweep (bursty loss + delayed delivery + churn), which
# exercises the parallel loss-chain, delivery-heap, and re-homing paths end
# to end. The in-process digest matrix (manet's
# TestParallelMatchesSerialMatrix, run by `make test`/`race`) is the deep
# check; this one proves the end-to-end CLI plumbing.
FAULTFLAGS := -exp faults -quick -reps 2 -duration 8
parallel-smoke:
	$(GO) run ./cmd/paperfig $(PFLAGS) > /tmp/par_serial.txt
	$(GO) run ./cmd/paperfig $(PFLAGS) -domains 2 -engine-workers 4 > /tmp/par_domains.txt
	cmp /tmp/par_serial.txt /tmp/par_domains.txt
	$(GO) run ./cmd/paperfig $(FAULTFLAGS) > /tmp/par_faults_serial.txt
	$(GO) run ./cmd/paperfig $(FAULTFLAGS) -domains 2 -engine-workers 4 > /tmp/par_faults_domains.txt
	cmp /tmp/par_faults_serial.txt /tmp/par_faults_domains.txt

# Distributed-sweep smoke: a sweepd coordinator hands the same quick fig6
# sweep to two `paperfig -worker` processes over HTTP. The doomed worker is
# frozen (SIGSTOP) once it holds a lease: it is stopped, given 0.2 s for
# requests already sent to land, and resumed to try again while /status
# shows no leased task. Its leased tasks are then stolen after -lease-ttl
# and recomputed by the survivor, and it is SIGKILLed once sweepd exits.
# The finished fleet store must be sha256-identical, record for record, to
# a single-process `paperfig -store` sweep — the lease/steal/duplicate
# machinery may cost time but never bytes.
FLEET := /tmp/mstc_fleet_smoke
fleet-smoke:
	rm -rf $(FLEET) && mkdir -p $(FLEET)
	$(GO) build -o $(FLEET)/sweepd ./cmd/sweepd
	$(GO) build -o $(FLEET)/paperfig ./cmd/paperfig
	set -e; \
	$(FLEET)/sweepd $(PFLAGS) -store $(FLEET)/fleet -addr 127.0.0.1:0 \
		-addr-file $(FLEET)/addr -lease-ttl 3s -exit-on-done 2> $(FLEET)/sweepd.log & \
	SWEEPD=$$!; \
	for i in $$(seq 100); do test -s $(FLEET)/addr && break; sleep 0.1; done; \
	ADDR=$$(cat $(FLEET)/addr); \
	$(FLEET)/paperfig -worker http://$$ADDR 2> $(FLEET)/doomed.log & \
	DOOMED=$$!; \
	FROZEN=; \
	for i in $$(seq 100); do \
		kill -STOP $$DOOMED 2> /dev/null || break; \
		sleep 0.2; \
		if curl -sf http://$$ADDR/status | grep -Eq '"leased": ?[1-9]'; then FROZEN=1; break; fi; \
		kill -CONT $$DOOMED 2> /dev/null || break; \
		sleep 0.05; \
	done; \
	test -n "$$FROZEN" || { echo "fleet-smoke: the doomed worker was never frozen holding a lease" >&2; \
		kill -9 $$DOOMED $$SWEEPD 2> /dev/null; exit 1; }; \
	$(FLEET)/paperfig -worker http://$$ADDR 2> $(FLEET)/survivor.log & \
	SURVIVOR=$$!; \
	wait $$SWEEPD; \
	kill -9 $$DOOMED; wait $$DOOMED 2> /dev/null || true; \
	wait $$SURVIVOR
	$(FLEET)/paperfig $(PFLAGS) -store $(FLEET)/direct > /dev/null
	cd $(FLEET)/fleet  && find runs -type f | sort | xargs sha256sum > $(FLEET)/fleet.sum
	cd $(FLEET)/direct && find runs -type f | sort | xargs sha256sum > $(FLEET)/direct.sum
	cmp $(FLEET)/fleet.sum $(FLEET)/direct.sum

# Traffic-subsystem smoke: the routing comparison (AODV/OLSR CBR flows
# over controlled vs unit-disk topology) run twice and byte-compared —
# any nondeterminism in route discovery, TC flooding, or flow scheduling
# fails the diff. The second leg computes the same task set through a
# sweepd coordinator and one `paperfig -worker`; the fleet store must be
# sha256-identical, record for record, to a single-process sweep.
TRAFFIC := /tmp/mstc_traffic_smoke
TRAFFLAGS := -exp traffic -quick -reps 2 -duration 8
traffic-smoke:
	rm -rf $(TRAFFIC) && mkdir -p $(TRAFFIC)
	$(GO) build -o $(TRAFFIC)/sweepd ./cmd/sweepd
	$(GO) build -o $(TRAFFIC)/paperfig ./cmd/paperfig
	$(TRAFFIC)/paperfig $(TRAFFLAGS) > $(TRAFFIC)/a.txt
	$(TRAFFIC)/paperfig $(TRAFFLAGS) > $(TRAFFIC)/b.txt
	cmp $(TRAFFIC)/a.txt $(TRAFFIC)/b.txt
	set -e; \
	$(TRAFFIC)/sweepd $(TRAFFLAGS) -store $(TRAFFIC)/fleet -addr 127.0.0.1:0 \
		-addr-file $(TRAFFIC)/addr -lease-ttl 3s -exit-on-done 2> $(TRAFFIC)/sweepd.log & \
	SWEEPD=$$!; \
	for i in $$(seq 100); do test -s $(TRAFFIC)/addr && break; sleep 0.1; done; \
	ADDR=$$(cat $(TRAFFIC)/addr); \
	$(TRAFFIC)/paperfig -worker http://$$ADDR 2> $(TRAFFIC)/worker.log & \
	WORKER=$$!; \
	wait $$SWEEPD; \
	wait $$WORKER
	$(TRAFFIC)/paperfig $(TRAFFLAGS) -store $(TRAFFIC)/direct > /dev/null
	cd $(TRAFFIC)/fleet  && find runs -type f | sort | xargs sha256sum > $(TRAFFIC)/fleet.sum
	cd $(TRAFFIC)/direct && find runs -type f | sort | xargs sha256sum > $(TRAFFIC)/direct.sum
	cmp $(TRAFFIC)/fleet.sum $(TRAFFIC)/direct.sum

# Benchmark smoke: one full-size timed pass (seed 2004) of each bench/
# workload. Fails when an oracle fails, when the result digest differs from
# the pinned one (a wrong result), or when the host-scaled cpu_s_per_run
# exceeds its ceiling, about 2x the accepted median (a catastrophic
# slowdown). CPU seconds per run do not scale with core count, so the
# ceilings hold on any host. Each line is: workload, digest, ceiling (s).
bench-smoke:
	@set -e; \
	for spec in \
		'fig6-flood sha256:97c67ef0bb50e27dd7c14b2e22c4d21090f9f48d17e54ef76785d30850d903f3 0.088' \
		'consistency-mech sha256:65b6fc221367988306166a5bb973548bf36c2e3b66bd1c4b6c5eca10fe53cf23 0.160' \
		'large-n sha256:e0905f077f9fd4eb6f0ecc9432b8a582d7451ea0d7358b62eaadc182571bc6b5 0.158'; do \
		set -- $$spec; \
		out=$$(bash bench/run.sh --workload $$1 --passes 1); \
		echo "$$out"; \
		echo "$$out" | grep -q '^{"correct":true,' && \
			echo "$$out" | grep -qx 'check ok: every oracle passed' || \
			{ echo "bench-smoke: $$1: an oracle failed" >&2; exit 1; }; \
		digest=$$(echo "$$out" | awk '$$1 == "digest" { print $$2 }'); \
		test "$$digest" = "$$2" || \
			{ echo "bench-smoke: $$1: digest $$digest, want $$2" >&2; exit 1; }; \
		cpu=$$(echo "$$out" | awk '$$1 == "metric" && $$2 == "cpu_s_per_run" { print $$3 }'); \
		awk -v cpu="$$cpu" -v max=$$3 'BEGIN { exit !(cpu != "" && cpu + 0 <= max + 0) }' || \
			{ echo "bench-smoke: $$1: cpu_s_per_run $$cpu s, ceiling $$3 s" >&2; exit 1; }; \
	done

# The benchmark harness (bench/) is a module of its own, which the root
# `go test ./...` never builds: vet and test it separately, so an API change
# in internal/ that breaks its wrappers fails here.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

check: build vet lint test race
