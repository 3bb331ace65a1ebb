package sim_test

import (
	"encoding/json"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// FuzzSpecValidate fuzzes the event-timeline trust boundary: a spec with
// events that passes workloads.Spec.Validate must run a short analytic
// simulation under any policy without a panic — in particular without
// the vm layer's panic on a mem.ErrOverFree double free. The corpus is
// the dynamic suite's timelines as JSON, with every region cut 64-fold
// so a run takes milliseconds; specs past that size budget are outside
// the target's domain. `go test -fuzz=FuzzSpecValidate ./internal/sim`
func FuzzSpecValidate(f *testing.F) {
	for i, spec := range workloads.Dynamic() {
		for ri := range spec.Regions {
			spec.Regions[ri].Bytes /= 64
		}
		for _, ev := range spec.Events {
			if ev.Alloc != nil {
				ev.Alloc.Bytes /= 64
			}
		}
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(i))
	}
	names := policy.Names()
	f.Fuzz(func(t *testing.T, data []byte, pol uint8) {
		var spec workloads.Spec
		if json.Unmarshal(data, &spec) != nil || len(spec.Events) == 0 || spec.Validate() != nil {
			return
		}
		bytes := uint64(0)
		for _, r := range spec.Regions {
			bytes += min(r.Bytes, 1<<40)
		}
		for _, ev := range spec.Events {
			if ev.Alloc != nil {
				bytes += min(ev.Alloc.Bytes, 1<<40)
			}
		}
		if bytes > 2<<30 || spec.WorkPerThread > 1e9 {
			return
		}
		p, err := policy.ByName(names[int(pol)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.Mode = sim.ModeAnalytic
		cfg.WorkScale = 0.01
		eng, err := sim.New(topo.MachineA(), spec, p, cfg)
		if err != nil {
			t.Fatalf("validated spec rejected by the engine: %v", err)
		}
		eng.Run()
	})
}
