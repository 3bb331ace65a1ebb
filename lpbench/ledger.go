package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// counts are the work counts that must repeat exactly between runs of
// one build with one seed: the engine is deterministic, so any drift is
// a bug, not noise.
type counts struct {
	Runs    int       `json:"runcache.runs"`
	Epochs  int       `json:"sim.epochs"`
	Faults  [3]uint64 `json:"vm.faults"` // 4K, 2M, 1G
	IBS     uint64    `json:"ibs.samples"`
	Records int       `json:"store.records"`
}

func (s *session) counts() counts {
	c := counts{Runs: s.totals.Runs, Records: s.records}
	for _, cl := range s.cold.cells {
		r := s.cold.results[cl]
		c.Epochs += r.Epochs
		c.IBS += r.IBSSamplesTaken
		for i, f := range r.FaultCounts {
			c.Faults[i] += f
		}
	}
	return c
}

// ledgerEntry is what a run of one build, workload and seed recorded.
// The digest is kept for reading, not compared.
type ledgerEntry struct {
	Counts counts `json:"counts"`
	Digest string `json:"results_sha256"`
}

// checkLedger compares this run's counts with the first correct run of
// the same build, workload and seed, recording a failed check on drift,
// and adds the entry when this run is that first correct one. The build is identified by the hash
// of the running executable.
func (s *session) checkLedger() error {
	build, err := executableHash()
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%s/%s/%d", build, s.opt.workload, s.opt.seed)
	ledger := map[string]ledgerEntry{}
	data, err := os.ReadFile(s.opt.ledger)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &ledger); err != nil {
			return fmt.Errorf("read count ledger %s: %w", s.opt.ledger, err)
		}
	}
	got := ledgerEntry{Counts: s.counts(), Digest: s.digest}
	if prev, ok := ledger[key]; ok {
		if prev.Counts != got.Counts {
			s.problemf("deterministic counts drifted from an earlier run of this build and seed: was %+v, now %+v", prev.Counts, got.Counts)
		}
		return nil
	}
	if s.failed > 0 || len(s.problems) > 0 {
		return nil // an incorrect run is no reference
	}
	ledger[key] = got
	out, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	tmp := s.opt.ledger + ".tmp"
	if err := os.WriteFile(tmp, append(out, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.opt.ledger)
}

func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
