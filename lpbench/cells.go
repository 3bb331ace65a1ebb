package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/lpnuma"
)

// cell names one simulation the way the serve API spells it, so every
// cell a workload simulates can be asked for again over HTTP.
type cell struct {
	Machine, Workload, Policy string
	Seed                      uint64
	Mode                      string // lpnuma.Mode name
	Scale                     float64
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/%s/seed%d/%s/scale%g", c.Machine, c.Workload, c.Policy, c.Seed, c.Mode, c.Scale)
}

// cellOf reads a declared request back into its API spelling.
func cellOf(req lpnuma.Request) cell {
	cfg := lpnuma.DefaultConfig()
	if req.Cfg != nil {
		cfg = *req.Cfg
	}
	seed := req.Seed
	if seed == 0 {
		seed = cfg.Seed
	}
	return cell{req.Machine, req.Workload, req.Policy, seed, cfg.Mode.String(), cfg.WorkScale}
}

// request is the in-process form of the cell.
func (c cell) request() (lpnuma.Request, error) {
	cfg := lpnuma.DefaultConfig()
	mode, err := lpnuma.ParseMode(c.Mode)
	if err != nil {
		return lpnuma.Request{}, err
	}
	cfg.Mode = mode
	cfg.WorkScale = c.Scale
	return lpnuma.Request{Machine: c.Machine, Workload: c.Workload, Policy: c.Policy, Seed: c.Seed, Cfg: &cfg}, nil
}

func (c cell) runRequest() serve.RunRequest {
	return serve.RunRequest{Machine: c.Machine, Workload: c.Workload, Policy: c.Policy, Seed: c.Seed, Mode: c.Mode, Scale: c.Scale}
}

// simSeed maps the workload seed to a non-zero engine seed (the engine
// treats 0 as "use the configured default").
func simSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)%1_000_000 + 1
}

// declare lists the cells of every experiment keep accepts, in
// regeneration order: what `lpnuma all` submits for them.
func declare(seed uint64, keep func(id string) bool) ([]lpnuma.Request, error) {
	cfg := lpnuma.ExperimentConfig{Seed: simSeed(seed), WorkScale: quickScale}
	var reqs []lpnuma.Request
	for _, id := range lpnuma.Experiments() {
		if !keep(id) {
			continue
		}
		r, err := experiments.Declare(id, cfg)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r...)
	}
	return reqs, nil
}

// quickScale is the reduced WorkScale `lpnuma bench` runs the quick
// sections at; fullscale cells carry their own scale 1.0.
const quickScale = 0.1

// serveGrid is the serve workload's miss list: distinct small cells on
// both machines, mixed policies, and serveSeeds seed-drawn engine seeds,
// in a seed-drawn order. Every (machine, seed) slice is a 4x4 workload x
// policy square, so sweep batches of 16 cached cells exist.
func serveGrid(rng *rand.Rand) []cell {
	const scale = 0.02
	seeds := map[uint64]bool{}
	var seedList []uint64
	for len(seedList) < serveSeeds {
		s := uint64(rng.Int63n(1_000_000)) + 1
		if !seeds[s] {
			seeds[s] = true
			seedList = append(seedList, s)
		}
	}
	var out []cell
	for _, m := range []string{"A", "B"} {
		for _, w := range []string{"CG.D", "UA.C", "SSCA.20", "SPECjbb"} {
			for _, p := range []string{lpnuma.PolicyLinux4K, lpnuma.PolicyTHP, lpnuma.PolicyCarrefour2M, lpnuma.PolicyCarrefourLP} {
				for _, s := range seedList {
					out = append(out, cell{m, w, p, s, lpnuma.ModeSampled.String(), scale})
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serveSeeds is how many engine seeds the serve grid spans: 32 cells
// each.
const serveSeeds = 16

// batch is one /v1/sweep request over cached cells: a machine x
// workloads x policies product at one seed, mode and scale.
type batch struct {
	req   serve.SweepRequest
	cells []cell // in the daemon's answer order
}

// batchCells is the size of a sweep batch.
const batchCells = 16

// findBatches draws up to want distinct 16-cell products out of cells,
// so every sweep asks only for cached cells.
func findBatches(cells []cell, rng *rand.Rand, want int) []batch {
	type group struct {
		machine, mode string
		seed          uint64
		scale         float64
	}
	has := map[group]map[string]map[string]bool{} // group -> workload -> policy
	for _, c := range cells {
		g := group{c.Machine, c.Mode, c.Seed, c.Scale}
		if has[g] == nil {
			has[g] = map[string]map[string]bool{}
		}
		if has[g][c.Workload] == nil {
			has[g][c.Workload] = map[string]bool{}
		}
		has[g][c.Workload][c.Policy] = true
	}
	groups := make([]group, 0, len(has))
	for g := range has {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		return fmt.Sprint(a) < fmt.Sprint(b)
	})
	pick := func(from []string, n int) []string {
		out := append([]string(nil), from...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out[:n]
	}
	seen := map[string]bool{}
	var out []batch
	for trial := 0; trial < 200*want && len(out) < want; trial++ {
		g := groups[rng.Intn(len(groups))]
		wls := sortedSet(has[g])
		k := []int{2, 4}[rng.Intn(2)] // policies per batch
		pols := sortedSet(has[g][wls[rng.Intn(len(wls))]])
		if len(pols) < k {
			continue
		}
		pols = pick(pols, k)
		var cands []string
		for _, w := range wls {
			all := true
			for _, p := range pols {
				all = all && has[g][w][p]
			}
			if all {
				cands = append(cands, w)
			}
		}
		if len(cands) < batchCells/k {
			continue
		}
		chosen := pick(cands, batchCells/k)
		b := batch{req: serve.SweepRequest{
			Machines: []string{g.machine}, Workloads: chosen, Policies: pols,
			Seeds: []uint64{g.seed}, Mode: g.mode, Scale: g.scale,
		}}
		for _, w := range chosen {
			for _, p := range pols {
				b.cells = append(b.cells, cell{g.machine, w, p, g.seed, g.mode, g.scale})
			}
		}
		key := fmt.Sprint(b.cells)
		if !seen[key] {
			seen[key] = true
			out = append(out, b)
		}
	}
	return out
}

func sortedSet[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// digest is the SHA-256 over the canonical results: one line per
// distinct cell, in cell order, holding the cell and its result JSON.
// Equal digests on two commits mean byte-identical simulated results.
func digest(cells []cell, results map[cell]lpnuma.Result) (string, error) {
	sorted := append([]cell(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].String() < sorted[j].String() })
	h := sha256.New()
	for _, c := range sorted {
		data, err := json.Marshal(results[c])
		if err != nil {
			return "", fmt.Errorf("encode result of %s: %w", c, err)
		}
		fmt.Fprintf(h, "%s\t%s\n", c, data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
