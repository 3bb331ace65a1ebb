package runcache

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
)

// excludedKeyFields are the sim.Config fields that must NOT affect a
// cell's content address: parallelism knobs cannot change results
// (DESIGN.md §4.6), so cells differing only there must share one cache
// entry. Every other field must change the key — this is the permanent
// guard against the class of bug where a new result-affecting field
// (Mode was the instance that motivated it) silently reuses cached
// results computed under a different configuration.
var excludedKeyFields = map[string]bool{
	"Pool": true,
	// Reference swaps the engine's optimized paths for its reference
	// paths, which are byte-identity-equivalent by contract (DESIGN.md
	// §4.10–4.11, enforced by sim's identity harness),
	// so like the parallelism knobs it must not split the cache.
	"Reference": true,
}

// TestCfgHashPinned pins the content address of A/CG.D/THP in both
// modes at three work scales to the values every earlier build wrote
// into its cache logs. A change to sim.Config.Hash's serialization, or to
// a calibration constant it covers, moves these literals — which is the
// point: it must be a deliberate, visible invalidation of every cache.
func TestCfgHashPinned(t *testing.T) {
	want := []struct {
		mode  sim.Mode
		scale float64
		hash  uint64
	}{
		{sim.ModeSampled, 0, 0x14f5709c3ed91b3c},
		{sim.ModeSampled, 0.05, 0xafbfc8ca168c2c23},
		{sim.ModeSampled, 1.0, 0xd2ad8482a537ef55},
		{sim.ModeAnalytic, 0, 0x45b71d4c177b40b1},
		{sim.ModeAnalytic, 0.05, 0x6a94141312cfa5a0},
		{sim.ModeAnalytic, 1.0, 0x746ba7a4db0bfcd8},
	}
	for _, w := range want {
		cfg := sim.DefaultConfig()
		cfg.Mode = w.mode
		cfg.WorkScale = w.scale
		k := KeyOf(runner.Request{Machine: "A", Workload: "CG.D", Policy: "THP", Cfg: &cfg})
		if k.CfgHash != w.hash {
			t.Errorf("%s scale %g: CfgHash %#x, want %#x", w.mode, w.scale, k.CfgHash, w.hash)
		}
	}
}

// TestKeyCoversEveryConfigField walks every leaf field of sim.Config by
// reflection, perturbs it, and requires the cell key to change (or, for
// the exclusion list, to stay identical). A sim.Config field added
// without extending sim.Config.Hash or excludedKeyFields fails here.
func TestKeyCoversEveryConfigField(t *testing.T) {
	base := sim.DefaultConfig()
	keyFor := func(cfg sim.Config) Key {
		return KeyOf(runner.Request{Machine: "A", Workload: "CG.D", Policy: "THP", Cfg: &cfg})
	}
	baseKey := keyFor(base)
	for _, path := range leafFieldPaths(reflect.TypeOf(base), "") {
		cfg := base
		v := fieldByPath(reflect.ValueOf(&cfg).Elem(), path)
		if err := perturbField(v); err != nil {
			t.Fatalf("field %s: %v", path, err)
		}
		got := keyFor(cfg)
		if excludedKeyFields[path] {
			if got != baseKey {
				t.Errorf("excluded field %s changed the cell key: parallelism must not affect content addresses", path)
			}
			continue
		}
		if got == baseKey {
			t.Errorf("field %s does not affect the cell key: extend sim.Config.Hash (or excludedKeyFields if it provably cannot change results)", path)
		}
	}
}

// leafFieldPaths enumerates dotted paths to every leaf (non-struct)
// field, descending into nested structs like sim.Config.IBS.
func leafFieldPaths(typ reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := prefix + f.Name
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFieldPaths(f.Type, name+".")...)
			continue
		}
		out = append(out, name)
	}
	return out
}

// fieldByPath resolves a dotted path on an addressable struct value.
func fieldByPath(v reflect.Value, path string) reflect.Value {
	for _, part := range strings.Split(path, ".") {
		v = v.FieldByName(part)
	}
	return v
}

// perturbField changes a field to a different, valid-enough value; the
// exact value is irrelevant, only that equal configs stop being equal.
func perturbField(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.421875)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		return &unsupportedKind{v.Kind()}
	}
	return nil
}

type unsupportedKind struct{ k reflect.Kind }

func (e *unsupportedKind) Error() string {
	return "no perturbation for kind " + e.k.String() + "; teach perturbField about it"
}
