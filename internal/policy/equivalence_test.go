package policy

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// equivSpec is the golden file's "equiv" workload (golden_test.go at
// the module root): a hot shared region (hot-page splits, placement), a
// private region (locality) and a churny shared region (fault pressure
// for the conservative component), run for several 1 s daemon
// intervals.
func equivSpec() workloads.Spec {
	return workloads.Spec{
		Name: "equiv",
		Regions: []workloads.RegionSpec{
			{Name: "hot", Bytes: 96 << 20, Weight: 0.5, Loc: cache.ZipfHot,
				HotFrac: 0.02, HotAccessFrac: 0.7, DRAMFloor: 0.4,
				Sharing: workloads.SharedAll, Init: workloads.InitStriped, InitTouchWeight: 32},
			{Name: "priv", Bytes: 128 << 20, Weight: 0.35, Loc: cache.RandomUniform,
				Sharing: workloads.PrivateBlocked, Init: workloads.InitOwner, InitTouchWeight: 32,
				HaloFrac: 0.05, HaloBytes: 4096},
			{Name: "churn", Bytes: 64 << 20, Weight: 0.15, Loc: cache.RandomUniform,
				DRAMFloor: 0.3, Sharing: workloads.SharedAll, Init: workloads.InitStriped,
				InitTouchWeight: 32, ChurnPer1K: 1, ChurnTHPFrac: 0.5},
		},
		WorkPerThread:        6e7,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.6,
	}
}

// goldenFile is the module root's golden digest file.
const goldenFile = "../../testdata/golden.tsv"

// TestPipelineMatchesLegacyByteIdentical is the refactor's
// behavior-preservation contract: for each of the paper's seven
// configurations, the composable pipeline must produce a sim.Result
// byte-identical to the frozen monolithic implementation it replaced.
// That implementation's results on equivSpec are pinned, in both modes,
// as the A/equiv rows of the golden file, which was recorded while the
// two were still checked against each other; this test holds the
// pipeline to those digests.
func TestPipelineMatchesLegacyByteIdentical(t *testing.T) {
	file, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, l := range strings.Split(string(file), "\n") {
		if arch, ok := strings.CutPrefix(l, "# goarch\t"); ok && arch != runtime.GOARCH {
			// Go may fuse multiply-adds on arm64, ppc64 and s390x, so
			// float results are only reproducible on the recorded GOARCH.
			t.Skipf("%s was recorded on GOARCH %s; this is %s", goldenFile, arch, runtime.GOARCH)
		}
		if f := strings.Split(l, "\t"); len(f) == 9 && f[0] == "A" && f[1] == "equiv" {
			digests[f[2]+"/"+f[3]] = f[4]
		}
	}
	for _, name := range PaperNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, mode := range []sim.Mode{sim.ModeSampled, sim.ModeAnalytic} {
				want, ok := digests[name+"/"+mode.String()]
				if !ok {
					t.Fatalf("%s has no A/equiv/%s/%s line", goldenFile, name, mode)
				}
				pol, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.DefaultConfig()
				cfg.Mode = mode
				eng, err := sim.New(topo.MachineA(), equivSpec(), pol, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := eng.Run()
				js, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != want {
					t.Errorf("%s: pipeline result differs from the pinned legacy digest:\nwant %s\ngot  %s (runtime %.6gs, LAR %.6g%%, imbalance %.6g%%, PTW share %.6g%%)",
						mode, want, got, res.RuntimeSeconds, res.LARPct, res.ImbalancePct, res.PTWSharePct)
				}
			}
		})
	}
}

// TestBeyondPoliciesDiffer guards against the inverse failure: the
// page-table-aware pipelines must NOT be result-identical to plain THP
// (if they were, the new pricing would be dead code).
func TestBeyondPoliciesDiffer(t *testing.T) {
	run := func(name string) sim.Result {
		pol, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		eng, err := sim.New(topo.MachineA(), equivSpec(), pol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run()
	}
	lin := run("Linux4K")
	base := run("PTBaseline")
	if lin.RuntimeSeconds == base.RuntimeSeconds && lin.Counters == base.Counters {
		t.Fatal("PTBaseline is identical to Linux4K: page-table pricing is dead")
	}
	if base.RuntimeSeconds <= lin.RuntimeSeconds {
		t.Fatalf("pricing remote page tables should cost time: %.3fs vs %.3fs",
			base.RuntimeSeconds, lin.RuntimeSeconds)
	}
	// Replication removes every remote-walk surcharge, so it must not be
	// slower than first-touch page tables on this multi-node workload.
	mit := run("MitosisPTR")
	if mit.RuntimeSeconds > base.RuntimeSeconds*1.02 {
		t.Fatalf("MitosisPTR (%.3fs) should not lose to PTBaseline (%.3fs)",
			mit.RuntimeSeconds, base.RuntimeSeconds)
	}
}
