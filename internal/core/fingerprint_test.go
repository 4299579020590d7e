package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"testing"

	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/prop"
	"shardstore/internal/store"
)

// harnessFingerprint is the SHA-256 of everything TestHarnessFingerprint
// observes. It changes only when a random stream the harness or the node
// draws from moves — generated sequences, chunk UUIDs, crash and rot
// outcomes — or a checked behaviour changes. A change that moves it on
// purpose says so by editing this line.
const harnessFingerprint = "978a4a39f48322039974c99191e0c74929d912eae973a22e97a00d46b7ef4414"

// fingerprintConfigs are the two legs of the fingerprint: every alphabet the
// 12k-case stress enables plus the control plane, and the silent-corruption
// alphabet (which the stress leaves out because it changes the checked
// property).
func fingerprintConfigs() []Config {
	small := store.Config{
		Disk:    disk.Config{PageSize: 128, PagesPerExtent: 8, ExtentCount: 8},
		Compact: aggressiveCompact(),
	}
	return []Config{
		{
			Seed: 13, Cases: 300, OpsPerCase: 60,
			Bias:               Bias{KeyReuse: 0.8, PageSizeValues: 0.6, ConstantValueBytes: 0.5, ZeroValues: 0.5, UUIDZeroBias: 0.6},
			EnableCrashes:      true,
			EnableReboots:      true,
			EnableFailures:     true,
			EnableControlPlane: true,
			EnableGroupCommit:  true,
			EnableCompaction:   true,
			EnableScrub:        true,
			EnableScan:         true,
			StoreConfig:        small,
		},
		{
			Seed: 13, Cases: 100, OpsPerCase: 50,
			Bias:             DefaultBias(),
			EnableCrashes:    true,
			EnableReboots:    true,
			EnableCorruption: true,
			EnableScrub:      true,
			EnableScan:       true,
			EnableCompaction: true,
			StoreConfig:      store.Config{Compact: aggressiveCompact()},
		},
	}
}

// TestHarnessFingerprint pins behaviour, not just verdicts: it runs each
// case of the all-features configuration the way Run does at Workers: 1 and
// hashes the case's verdict, op and crash counts, coverage totals and final
// disk image (the volatile view, then the durable one). "The streams did not
// move" is then a tier-1 fact rather than a re-reading of EXPERIMENTS.md.
func TestHarnessFingerprint(t *testing.T) {
	h := sha256.New()
	for leg, cfg := range fingerprintConfigs() {
		failed := 0
		for i := 0; i < cfg.Cases; i++ {
			ccfg := cfg
			ccfg.StoreConfig.Bugs = faults.NewSet()
			ccfg.StoreConfig.Obs = obs.New(nil).WithProbes()
			ccfg = ccfg.withDefaults()
			seq := GenerateSeq(rand.New(rand.NewSource(prop.CaseSeed(cfg.Seed, i))), ccfg)
			ops, crashes, d, err := RunSeqDisk(seq, ccfg)
			if err != nil {
				failed++
			}
			fmt.Fprintf(h, "leg %d case %d: ops=%d crashes=%d err=%v\n", leg, i, ops, crashes, err)
			io.WriteString(h, ccfg.StoreConfig.Obs.Snapshot().Probes.Report(""))
			hashDiskImage(t, h, d)
		}
		t.Logf("leg %d: %d cases, %d with a violation", leg, cfg.Cases, failed)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != harnessFingerprint {
		t.Fatalf("harness fingerprint moved:\n got  %s\n want %s\n"+
			"a random stream (sequence generation, chunk UUIDs, crash or rot outcomes) or a checked behaviour changed", got, harnessFingerprint)
	}
}

// hashDiskImage writes every extent as reads see it (write cache over durable
// bytes), then drops the write cache and writes the durable image alone.
func hashDiskImage(t *testing.T, h hash.Hash, d *disk.Disk) {
	t.Helper()
	d.ClearFailures()
	buf := make([]byte, d.Config().ExtentBytes())
	image := func() {
		for ext := 0; ext < d.Config().ExtentCount; ext++ {
			if err := d.ReadAt(disk.ExtentID(ext), 0, buf); err != nil {
				t.Fatalf("reading extent %d: %v", ext, err)
			}
			h.Write(buf)
		}
	}
	image()
	d.CrashKeep(func(disk.PageAddr) bool { return false })
	image()
}
