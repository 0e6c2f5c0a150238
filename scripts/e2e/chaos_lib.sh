# Shared helpers for the chaos e2e drivers. Sourced by harness.sh; keep
# POSIX-sh compatible (CI images differ on /bin/sh).
#
# Conventions:
#   E2E_LOG_DIR   where JSONL action logs land (default results/e2e-logs)
#   E2E_SEEDS     fresh seeds per chaos run
#   E2E_ACTIONS   driver actions per seed
#   E2E_NODES     initial network size
#   E2E_BASE_SEED first fresh seed value

# Absolute path: `go test ./internal/e2e/` resolves relative paths
# against the package directory, which would scatter logs into the tree.
: "${E2E_LOG_DIR:=$PWD/results/e2e-logs}"
export E2E_LOG_DIR

e2e_prepare_logs() {
    mkdir -p "$E2E_LOG_DIR"
}

# e2e_run_seeds <seeds> <actions> — fresh-seed chaos run, all three
# stream shapes (mixed, the pure-mobility kinetic-repair profile and the
# membership-heavy churn profile).
# Failing seeds are auto-banked into
# internal/e2e/testdata/regression_seeds.json; the driver prints a
# reminder to commit the bank when that happens.
e2e_run_seeds() {
    seeds="$1"
    actions="$2"
    echo "chaos: $seeds seeds x $actions actions (logs: $E2E_LOG_DIR)"
    if ! E2E_SEEDS="$seeds" E2E_ACTIONS="$actions" \
        go test -count=1 -run 'TestChaosSeeds|TestChaosMobilitySeeds|TestChaosChurnSeeds' ./internal/e2e/; then
        echo "chaos: FAILED — check $E2E_LOG_DIR and commit any new entries in" >&2
        echo "chaos:          internal/e2e/testdata/regression_seeds.json" >&2
        return 1
    fi
}

# e2e_replay_bank — replay every banked regression seed.
e2e_replay_bank() {
    echo "chaos: replaying banked regression seeds"
    go test -count=1 -run TestRegressionSeeds -v ./internal/e2e/ | grep -E '^(=== RUN|--- (PASS|FAIL|SKIP)|ok|FAIL)' || return 1
}

# e2e_mutation_gate — rebuild with the engine mutation injected and
# require the harness to catch it. Proves the oracle comparison has teeth.
e2e_mutation_gate() {
    echo "chaos: mutation gate (build tag mldcsmutate)"
    go test -count=1 -tags mldcsmutate -run TestMutationCaught ./internal/e2e/
}
