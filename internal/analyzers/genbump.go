package analyzers

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// GenBump enforces the vm package's generation contract: every exported
// method on Region or AddrSpace that writes mapping-observable state —
// chunk backing, page homes, translation counts, page-table homes, the
// region set — must also bump the mapping generation (r.mutated(),
// MarkMutated, or a direct gen increment). The analytic engine's memo
// layer (DESIGN.md §4.7/§4.10) invalidates exclusively on Region.Gen;
// PR 8's audit found MigratePT and the shrink path silently missing
// their bumps, which left the placement census stale and mis-priced
// traffic without failing any test until the reflection audit. This
// analyzer makes that bug class a compile-time error.
//
// Methods that write an observable field without needing a bump are
// either allowlisted in GenBumpAllowlist (kept in sync with the runtime
// mutation table by vm's TestGenTracksEveryMutation) or annotated
// //lpnuma:genbump-ok <reason> on the declaration.
var GenBump = &analysis.Analyzer{
	Name: "genbump",
	Doc:  "require exported vm.Region/vm.AddrSpace methods that mutate mapping-observable state to bump Gen",
	Run:  runGenBump,
}

// GenBumpAllowlist exempts exported vm methods that write an observable
// field but deliberately do not bump any region's generation, with the
// justification. TestGenTracksEveryMutation asserts this list and the
// runtime mutation table cover disjoint methods and that every entry
// still exists.
var GenBumpAllowlist = map[string]string{
	"AddrSpace.Mmap": "creates a new region whose Gen starts at zero; no existing region's mapping changes, and census caches are keyed per region",
}

// genReceivers are the vm types whose exported methods carry the
// obligation.
var genReceivers = map[string]bool{"Region": true, "AddrSpace": true}

// genObservableFields names the mapping-observable state per struct.
// subArrays is a split chunk's 4 KB record, reached through chunk.subs;
// a write such as c.subs.node[i] = n is charged to the innermost
// selector, subArrays.node, so the record's fields are listed in their
// own right. Access accounting (accesses, threadMask, subArrays.acc and
// mask), fault bookkeeping, the run cache and the generation counter
// itself are deliberately absent: they do not change what a placement
// census would compute.
var genObservableFields = map[string]map[string]bool{
	"Region": {
		"chunks": true, "count4K": true, "count2M": true, "count1G": true,
		"ptHome": true, "ptHomeSet": true, "Start": true, "Bytes": true,
	},
	"chunk": {
		"state": true, "node": true, "giantHead": true, "subs": true,
	},
	"subArrays": {
		"node": true, "mapped": true,
	},
	"AddrSpace": {
		"regions": true,
	},
}

// genMutatorCalls are unexported helper methods whose call is itself an
// observable mutation (they write chunk state on the caller's behalf).
var genMutatorCalls = map[string]bool{"mapSub": true, "ensureSubs": true}

// genBumpCalls are the methods that bump a region's generation.
var genBumpCalls = map[string]bool{"mutated": true, "MarkMutated": true}

// genBumpFields are counter fields whose direct increment also counts
// as a bump (gen in vm; snapGen in shadow copies).
var genBumpFields = map[string]bool{"gen": true, "snapGen": true}

// genMethodFacts is the classification of one method.
type genMethodFacts struct {
	name     string // "Region.MigratePT"
	decl     *ast.FuncDecl
	writes   []string // observable fields written, in source order
	bumps    bool
	exported bool
}

func runGenBump(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "vm" {
		return nil
	}
	for _, m := range classifyGenMethods(pass) {
		if !m.exported || len(m.writes) == 0 || m.bumps {
			continue
		}
		if _, ok := GenBumpAllowlist[m.name]; ok {
			continue
		}
		if _, ok := funcDirective(m.decl, "genbump-ok"); ok {
			continue
		}
		pass.Reportf(m.decl.Name.Pos(), "%s writes mapping-observable state (%s) without bumping the mapping generation: call r.mutated() / MarkMutated, add the method to GenBumpAllowlist, or annotate //lpnuma:genbump-ok <reason>",
			m.name, m.writes[0])
	}
	return nil
}

// classifyGenMethods inspects every Region/AddrSpace method of the
// package and records its observable writes and whether it bumps.
func classifyGenMethods(pass *analysis.Pass) []genMethodFacts {
	var out []genMethodFacts
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := receiverTypeName(pass, fd)
			if !genReceivers[recv] {
				continue
			}
			m := genMethodFacts{
				name:     recv + "." + fd.Name.Name,
				decl:     fd,
				exported: fd.Name.IsExported(),
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if field, ok := observableTarget(pass, lhs); ok {
							m.writes = append(m.writes, field)
						}
						if field, ok := bumpTarget(pass, lhs); ok {
							_ = field
							m.bumps = true
						}
					}
				case *ast.IncDecStmt:
					if field, ok := observableTarget(pass, n.X); ok {
						m.writes = append(m.writes, field)
					}
					if _, ok := bumpTarget(pass, n.X); ok {
						m.bumps = true
					}
				case *ast.CallExpr:
					if callee := calleeFunc(pass, n); callee != nil && callee.Pkg() == pass.Pkg {
						sig := callee.Type().(*types.Signature)
						if sig.Recv() != nil {
							rn := namedTypeName(sig.Recv().Type())
							if rn == "chunk" && genMutatorCalls[callee.Name()] {
								m.writes = append(m.writes, "chunk."+callee.Name())
							}
							if rn == "Region" && genBumpCalls[callee.Name()] {
								m.bumps = true
							}
						}
					}
				}
				return true
			})
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// receiverTypeName resolves a method's receiver to its named type.
func receiverTypeName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return ""
	}
	return namedTypeName(tv.Type)
}

// namedTypeName unwraps pointers to the named type's local name.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// observableTarget reports whether an assignment target is a
// mapping-observable field of Region, AddrSpace or chunk, unwrapping
// indexing and dereferences (c.subs.node[sub] = ..., r.chunks[ci].state
// = ...).
func observableTarget(pass *analysis.Pass, e ast.Expr) (string, bool) {
	return fieldTarget(pass, e, genObservableFields)
}

// bumpTarget reports whether an assignment target is a generation
// counter field.
func bumpTarget(pass *analysis.Pass, e ast.Expr) (string, bool) {
	return fieldTarget(pass, e, map[string]map[string]bool{
		"Region": genBumpFields, "AddrSpace": genBumpFields,
	})
}

func fieldTarget(pass *analysis.Pass, e ast.Expr, fields map[string]map[string]bool) (string, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			selInfo, ok := pass.TypesInfo.Selections[x]
			if !ok || selInfo.Kind() != types.FieldVal {
				return "", false
			}
			owner := namedTypeName(selInfo.Recv())
			if set, ok := fields[owner]; ok && set[x.Sel.Name] {
				return owner + "." + x.Sel.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}
