.PHONY: all build test check examples ci fmt mutants lint-src bench-json validate-bench bench-compare clean

all: build

build:
	dune build @all

test: build
	dune runtest

# Full verification: build, test suite, then the five API-tour examples
# and the demo subcommands under --check (whole-machine invariant scan +
# probe-trace lint; any finding is a non-zero exit), the static source
# audit, and a bounded model-check of the privilege state space (exit 2
# on counterexample).  The paper's scenarios are scanned by
# `bench/main.exe paper` and its analysis gate.
check: test examples lint-src
	dune exec bin/cki_demo.exe -- serve --check --containers 2 --requests 50
	dune exec bin/cki_demo.exe -- snapshot --check -o _build/demo.ckisnap
	dune exec bin/cki_demo.exe -- restore --check -i _build/demo.ckisnap
	dune exec bin/cki_demo.exe -- clone --check
	dune exec bin/cki_demo.exe -- fleet --check --tenants 2 --rate 45000 -r 2000
	dune exec bin/cki_demo.exe -- migrate --check --chaos
	dune exec bin/cki_demo.exe -- model-check --depth 8

# Mutation testing: every seeded enforcement mutant must be killed by
# the model checker (exit 1 if any survives).
mutants: build
	dune exec bin/cki_demo.exe -- model-check --mutants

# Static source audit: TCB write-sink containment, no Domain.spawn
# anywhere, hygiene.  Exit 2 on any finding.  (The build enforces the
# library DAG: implicit_transitive_deps is false.)
lint-src: build
	dune exec bin/cki_demo.exe -- lint-src

# Regenerate every checked-in benchmark artifact (BENCH_*.json) in the
# repo root, then validate them: a false gate fails here, after all eight
# files are written.
bench-json: build
	dune exec bench/main.exe -- --json snapshot modelcheck ioplane fleet migration srclint engine paper
	$(MAKE) validate-bench

# Check every BENCH_*.json against the artifact schema; exit non-zero
# if any is malformed, breaks the schema or has a false gate, or if
# BENCH_srclint.json's file or line count disagrees with the tree.
validate-bench: build
	dune exec bench/main.exe -- validate

# Compare every BENCH_*.json in the working tree with its committed
# version (git HEAD): sim metrics that moved are listed, wall metrics
# shown old -> new.  Visits every file, then exits non-zero if any sim
# metric differed or a file has no committed version.
bench-compare: build
	@mkdir -p _build/bench-compare; status=0; \
	for f in BENCH_*.json; do \
		echo "== $$f"; \
		if git show HEAD:$$f > _build/bench-compare/$$f 2>/dev/null; then \
			dune exec bench/main.exe -- compare _build/bench-compare/$$f $$f || status=1; \
		else \
			echo "  $$f has no committed version"; status=1; \
		fi; \
	done; \
	exit $$status

# Formatting check; a no-op (with a note) where ocamlformat is not
# installed, so `ci` works in minimal containers too.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# The pre-PR gate: formatting (when available), the full test suite,
# then the example/demo scenarios under the invariant scanner.
ci: build fmt
	dune runtest
	$(MAKE) check
	$(MAKE) validate-bench

examples: build
	dune exec examples/quickstart.exe
	dune exec examples/security_attacks.exe
	dune exec examples/traffic_serving.exe
	dune exec examples/fleet_autoscale.exe
	dune exec examples/live_migration.exe

clean:
	dune clean
