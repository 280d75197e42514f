.PHONY: check test vet build bench fuzz lint

build:
	go build ./...

vet:
	go vet ./...

# lint runs go vet, a gofmt check (fails when gofmt -l lists a file)
# and mplint, the repo-native analyzer suite (internal/analysis/lint).
# mplint exits 0 when clean, 1 on findings, 2 on a load/type error, so a
# failing target always means something actionable.
lint:
	go vet ./...
	@out="$$(gofmt -l internal cmd examples)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	go run ./cmd/mplint ./...

test:
	go test ./...

# Full gate: vet + mplint + build + a run of every example + race-enabled
# tests + stress pass + fuzz smoke.
check:
	./scripts/check.sh

# bench runs the root Go benchmarks once each. End-to-end performance
# is measured by the bench/ harness (bash bench/run.sh).
bench:
	go test -bench . -benchtime 1x -run '^$$' .

# fuzz runs each fuzz target for longer than the check-gate smoke.
fuzz:
	go test ./internal/query/ -run '^$$' -fuzz '^FuzzFilterCompileMatch$$' -fuzztime 60s
	go test ./internal/query/ -run '^$$' -fuzz '^FuzzUpdateApply$$' -fuzztime 60s
	go test ./internal/document/ -run '^$$' -fuzz '^FuzzDocumentPath$$' -fuzztime 60s
	go test ./internal/document/ -run '^$$' -fuzz '^FuzzParseAppendJSON$$' -fuzztime 60s
	go test ./internal/document/ -run '^$$' -fuzz '^FuzzSplitDocs$$' -fuzztime 60s
	go test ./internal/datastore/ -run '^$$' -fuzz '^FuzzKeyEncodingOrder$$' -fuzztime 60s
	go test ./internal/datastore/ -run '^$$' -fuzz '^FuzzGroupPartialCombine$$' -fuzztime 60s
	go test ./internal/cluster/wire/ -run '^$$' -fuzz '^FuzzDecodeJSONBytes$$' -fuzztime 60s
