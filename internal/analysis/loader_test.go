package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestModulePackagesSkipsNestedModules builds a module whose
// subdirectory holds a go.mod of its own: like the go tool's ./...,
// ModulePackages must list the outer module's packages only.
func TestModulePackagesSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":          "module example\n\ngo 1.22\n",
		"a.go":            "package a\n",
		"lib/lib.go":      "package lib\n",
		"nested/go.mod":   "module example/nested\n\ngo 1.22\n",
		"nested/n.go":     "package nested\n",
		"nested/sub/s.go": "package sub\n",
		"testdata/t/t.go": "package t\n",
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"example", "example/lib"}; !slices.Equal(got, want) {
		t.Fatalf("ModulePackages = %v, want %v", got, want)
	}
}
