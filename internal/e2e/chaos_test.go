package e2e

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// Env knobs (all optional):
//
//	E2E_SEEDS     number of fresh seeds per run (default 8; 3 under -short)
//	E2E_BASE_SEED first seed value (default 1)
//	E2E_NODES     initial network size (default 36)
//	E2E_ACTIONS   driver actions per seed (default 160)
//	E2E_LOG_DIR   keep JSONL action logs here (default: test temp dir)
//	E2E_BANK      set to 0 to disable banking failing seeds
func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func runConfig(seed int64) SeedConfig {
	return SeedConfig{
		Seed:    seed,
		Nodes:   envInt("E2E_NODES", 36),
		Actions: envInt("E2E_ACTIONS", 160),
	}
}

// runAndMaybeBank executes one seed, writing its JSONL log, and banks the
// seed into testdata/regression_seeds.json on failure so CI replays it
// forever after.
func runAndMaybeBank(t *testing.T, cfg SeedConfig, logDir string, bankable bool) {
	t.Helper()
	logName := fmt.Sprintf("seed_%d.jsonl", cfg.Seed)
	if cfg.Profile != "" {
		logName = fmt.Sprintf("seed_%s_%d.jsonl", cfg.Profile, cfg.Seed)
	}
	logPath := filepath.Join(logDir, logName)
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatalf("log file: %v", err)
	}
	defer logf.Close()

	stats, err := runSeed(cfg, logf)
	if err != nil {
		if bankable {
			bankSeed(t, cfg, err)
		}
		t.Fatalf("seed %d failed (log: %s): %v", cfg.Seed, logPath, err)
	}
	t.Logf("seed %d: %d batches / %d deltas, %d retries, %d malformed, %d disconnects, %d restarts, %d queries (%d errs), %d nodes @ epoch %d",
		cfg.Seed, stats.Batches, stats.Deltas, stats.Retries429, stats.Malformed,
		stats.Disconnects, stats.Restarts, stats.Queries, stats.QueryErrors,
		stats.FinalNodes, stats.FinalEpoch)
}

// runFreshSeeds runs E2E_SEEDS fresh seeds of one stream shape in
// parallel, banking each failure with its profile.
func runFreshSeeds(t *testing.T, profile string) {
	if mutationActive {
		t.Skip("engine mutation build: only TestMutationCaught is meaningful")
	}
	seeds := envInt("E2E_SEEDS", 8)
	if testing.Short() {
		seeds = 3
	}
	base := int64(envInt("E2E_BASE_SEED", 1))
	logDir := os.Getenv("E2E_LOG_DIR")
	if logDir == "" {
		logDir = t.TempDir()
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seeds; i++ {
		cfg := runConfig(base + int64(i))
		cfg.Profile = profile
		t.Run(fmt.Sprintf("seed_%d", cfg.Seed), func(t *testing.T) {
			t.Parallel()
			runAndMaybeBank(t, cfg, logDir, true)
		})
	}
}

// TestChaosSeeds is the front line: fresh seeds every knob change, each a
// full chaos run verified byte-for-byte against the oracle.
func TestChaosSeeds(t *testing.T) { runFreshSeeds(t, "") }

// TestChaosMobilitySeeds runs the pure-mobility-heavy stream shape: almost
// every delta is a small slide of an existing node, so the server's engine
// spends the run on its kinetic repair path and the byte-for-byte oracle
// comparison pins repaired skylines against the offline sequential
// recompute.
func TestChaosMobilitySeeds(t *testing.T) { runFreshSeeds(t, ProfileMobility) }

// TestChaosChurnSeeds runs the membership-heavy stream shape: joins and
// leaves outnumber moves, so the server's engine spends the run filling,
// emptying and reusing slots, and the oracle comparison pins joins,
// leaves, slot reuse and the exact-duplicate tie-break.
func TestChaosChurnSeeds(t *testing.T) { runFreshSeeds(t, ProfileChurn) }

// TestRegressionSeeds replays every banked seed. A seed enters the bank by
// failing once; it never leaves, so past escapes stay fixed.
func TestRegressionSeeds(t *testing.T) {
	if mutationActive {
		t.Skip("engine mutation build: only TestMutationCaught is meaningful")
	}
	bank, err := loadBank()
	if err != nil {
		t.Fatal(err)
	}
	if len(bank.Seeds) == 0 {
		t.Skip("regression bank is empty")
	}
	logDir := os.Getenv("E2E_LOG_DIR")
	if logDir == "" {
		logDir = t.TempDir()
	}
	for _, cfg := range bank.Seeds {
		cfg := cfg
		t.Run(fmt.Sprintf("seed_%d", cfg.Seed), func(t *testing.T) {
			t.Parallel()
			// Already banked: re-banking would only duplicate the entry.
			runAndMaybeBank(t, cfg, logDir, false)
		})
	}
}

// --- seed bank ---

const bankPath = "testdata/regression_seeds.json"

type seedBank struct {
	Seeds []SeedConfig `json:"seeds"`
}

var bankMu sync.Mutex

func loadBank() (seedBank, error) {
	var bank seedBank
	raw, err := os.ReadFile(bankPath)
	if err != nil {
		if os.IsNotExist(err) {
			return bank, nil
		}
		return bank, err
	}
	if err := json.Unmarshal(raw, &bank); err != nil {
		return bank, fmt.Errorf("%s: %w", bankPath, err)
	}
	return bank, nil
}

// bankSeed appends a failing seed to the regression bank (idempotently),
// so the failure is pinned before anyone even reads the test output.
func bankSeed(t *testing.T, cfg SeedConfig, cause error) {
	t.Helper()
	if os.Getenv("E2E_BANK") == "0" {
		return
	}
	bankMu.Lock()
	defer bankMu.Unlock()
	bank, err := loadBank()
	if err != nil {
		t.Logf("bank read failed, not banking: %v", err)
		return
	}
	for _, s := range bank.Seeds {
		if s.Seed == cfg.Seed && s.Nodes == cfg.Nodes && s.Actions == cfg.Actions && s.Profile == cfg.Profile {
			return
		}
	}
	cfg.Note = fmt.Sprintf("auto-banked: %.160s", cause.Error())
	cfg.Banked = time.Now().UTC().Format("2006-01-02")
	bank.Seeds = append(bank.Seeds, cfg)
	out, err := json.MarshalIndent(bank, "", "  ")
	if err != nil {
		t.Logf("bank marshal failed: %v", err)
		return
	}
	if err := os.MkdirAll(filepath.Dir(bankPath), 0o755); err != nil {
		t.Logf("bank mkdir failed: %v", err)
		return
	}
	if err := os.WriteFile(bankPath, append(out, '\n'), 0o644); err != nil {
		t.Logf("bank write failed: %v", err)
		return
	}
	t.Logf("banked seed %d into %s", cfg.Seed, bankPath)
}
