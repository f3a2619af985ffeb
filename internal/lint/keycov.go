package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// KeyCoverage proves the repository's hash/key functions are complete.
//
// A function annotated //manet:hashes <Type> is the canonical hash of the
// named struct. The analyzer walks its body — transitively through every
// same-package function it calls statically — and records which top-level
// fields of <Type> are read. Every field must then be either read or named
// on a //manet:hash-exclude <Field> <reason> line in the same doc comment.
// Adding a result-affecting config field without hashing it becomes a lint
// error instead of a digest surprise; exclusions are self-documenting and
// audited (a stale or redundant exclusion is itself a finding).
//
// Deleting a field the hash reads is caught one layer earlier: the read no
// longer type-checks, and the driver refuses to run on type errors.
var KeyCoverage = &Analyzer{
	Name: "key-coverage",
	Doc:  "hash/key functions must read or explicitly exclude every field of their hashed struct",
	Run:  runKeyCoverage,
}

func runKeyCoverage(p *Pass) {
	if p.Pkg.Types == nil || p.Pkg.Info == nil {
		return
	}
	callees := packageFuncDecls(p.Pkg)
	seen := make(map[string]bool) // "Func=Type" pairs annotated in this package
	walkFiles(p, func(f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			hd, _ := funcDirectives(fn, p.Reportf)
			if hd == nil {
				continue
			}
			seen[funcDisplayName(fn)+"="+hd.TypeName] = true
			checkHashCoverage(p, hd, callees)
		}
	})
	// Required pairs: the config names hash functions that must carry the
	// annotation, so key-coverage cannot be silently opted out of by
	// deleting the directive.
	for _, req := range p.Config.KeyCoverage {
		rel, pair, ok := strings.Cut(req, ":")
		if !ok || rel != p.Pkg.RelPath {
			continue
		}
		if !seen[pair] && len(p.Pkg.Files) > 0 {
			p.Reportf(p.Pkg.Files[0].Name.Pos(),
				"required hash pair %q has no manet:hashes annotation in %s", pair, p.Pkg.RelPath)
		}
	}
}

// checkHashCoverage verifies one //manet:hashes directive: resolves the
// hashed type, computes the transitive field-read set of the hash function,
// and reports uncovered fields and stale or redundant exclusions.
func checkHashCoverage(p *Pass, hd *hashDirective, callees map[*types.Func]*ast.FuncDecl) {
	obj := p.Pkg.Types.Scope().Lookup(hd.TypeName)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		p.Reportf(hd.Pos, "manet:hashes %s: package %s has no such type", hd.TypeName, p.Pkg.Types.Name())
		return
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		p.Reportf(hd.Pos, "manet:hashes %s: not a struct type", hd.TypeName)
		return
	}

	read := make(map[string]bool)
	visited := make(map[*ast.FuncDecl]bool)
	var visit func(fn *ast.FuncDecl)
	visit = func(fn *ast.FuncDecl) {
		if fn == nil || fn.Body == nil || visited[fn] {
			return
		}
		visited[fn] = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel, ok := p.Pkg.Info.Selections[n]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				recv := sel.Recv()
				if ptr, isPtr := recv.(*types.Pointer); isPtr {
					recv = ptr.Elem()
				}
				if named, isNamed := recv.(*types.Named); isNamed && named.Obj() == tn {
					// The first step of the selection path is the
					// top-level field (promoted fields mark the
					// embedded struct they travel through).
					read[st.Field(sel.Index()[0]).Name()] = true
				}
			case *ast.CallExpr:
				if callee := staticCallee(p.Pkg.Info, n); callee != nil {
					visit(callees[callee])
				}
			}
			return true
		})
	}
	visit(hd.Fn)

	fields := make(map[string]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i).Name()] = true
	}
	//lint:order-independent findings are position-sorted by Run before printing
	for name, reason := range hd.Excludes {
		switch {
		case !fields[name]:
			p.Reportf(hd.Pos, "manet:hash-exclude %s: %s has no such field (stale exclusion)", name, hd.TypeName)
		case read[name]:
			p.Reportf(hd.Pos, "manet:hash-exclude %s is redundant: %s reads the field (%s)",
				name, funcDisplayName(hd.Fn), reason)
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" || read[f.Name()] {
			continue
		}
		if _, excluded := hd.Excludes[f.Name()]; excluded {
			continue
		}
		p.Reportf(f.Pos(), "field %s.%s is neither read by %s nor excluded with manet:hash-exclude",
			hd.TypeName, f.Name(), funcDisplayName(hd.Fn))
	}
}

// packageFuncDecls maps each function object defined in the package to its
// declaration, for transitive body walks.
func packageFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					out[obj] = fn
				}
			}
		}
	}
	return out
}

// staticCallee resolves a call expression to the function object it invokes
// when that is statically known: plain function calls, package-qualified
// calls, and concrete method calls, with or without explicit type
// arguments (f[T](x)). Calls into generic code resolve to the generic
// declaration's object (Func.Origin), the key packageFuncDecls records: a
// method of an instantiated type is a distinct synthetic object with no
// declaration of its own. Interface dispatch and function-valued
// expressions return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = unparen(ix.X)
	case *ast.IndexListExpr:
		fun = unparen(ix.X)
	}
	var fn *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				fn, _ = sel.Obj().(*types.Func)
			}
		} else {
			// Not a selection: package-qualified identifier.
			fn, _ = info.Uses[fun.Sel].(*types.Func)
		}
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
