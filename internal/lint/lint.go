// Package lint implements manetlint, the project-specific static analyzer
// that enforces the simulation-determinism invariants DESIGN.md promises:
// no wall-clock reads, no global randomness, no map-iteration order reaching
// results, no unsupervised goroutines, no exact float comparisons outside
// deliberate tie-breaking, and no package-level mutable state.
//
// The paper's claims are validated by statistical simulation, and those
// statistics are only trustworthy when repetition i of an experiment replays
// bit-for-bit from its seed. Each analyzer here guards one way that property
// silently breaks. The package uses only the standard library (go/parser,
// go/ast, go/token, go/types); see cmd/manetlint for the driver.
//
// # Suppression
//
// A finding may be acknowledged in place with a per-line comment:
//
//	//lint:ignore <check> <reason>
//
// which suppresses findings of <check> on the comment's own line and on the
// line immediately below it (so both trailing comments and comment-above
// style work). The reason is required: an unexplained suppression is itself
// a finding. Range-over-map loops use the dedicated annotation
//
//	//lint:order-independent
//
// asserting that the loop body commutes (e.g. it accumulates into a sorted
// slice, sums, or deletes); the map-order analyzer verifies the annotation
// is present rather than trusting call sites silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at an exact source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string // analyzer name, e.g. "no-wallclock"
	Message string
	// Scope is the top-level declaration enclosing the finding; it feeds
	// the position-stable finding IDs (see diag.go).
	Scope string
}

// String formats the diagnostic the way compilers do: file:line:col: check: msg.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one invariant check. Run inspects the pass's package and
// reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Config scopes the analyzers. All path fields are slash-separated and
// relative to the module root.
type Config struct {
	// ScopePrefixes are the package-path prefixes (relative to the module
	// root) the analyzers enforce; packages outside every prefix are
	// loaded (for type information) but not analyzed.
	ScopePrefixes []string
	// RandAllowed are the package paths allowed to import math/rand or
	// crypto/rand — the deterministic-PRNG package itself.
	RandAllowed []string
	// GoroutineAllowed are the files allowed to contain go statements:
	// the experiment runner's worker pool (fan-out is replay-safe because
	// results merge by task index) and the region-parallel barrier pool
	// (fan-out is replay-safe because domains only touch state they own,
	// in the deterministic record order — see internal/manet/parallel.go).
	GoroutineAllowed []string
	// GlobalVarAllowed are the files allowed to declare package-level
	// mutable variables.
	GlobalVarAllowed []string
	// KeyCoverage lists hash/key pairs that MUST carry a //manet:hashes
	// annotation, as "relpath:Func=Type" (methods as "Recv.Name"). The
	// key-coverage analyzer reports a missing required annotation, so the
	// check cannot be opted out of by deleting the directive.
	KeyCoverage []string
}

// DefaultConfig returns the repository's enforcement policy.
func DefaultConfig() Config {
	return Config{
		ScopePrefixes: []string{"internal/", "cmd/"},
		RandAllowed:   []string{"internal/xrand"},
		GoroutineAllowed: []string{
			"internal/experiment/runner.go",
			"internal/sim/regions.go",
		},
		// The analyzer singletons below follow the go/analysis idiom of
		// package-level *Analyzer values; they are written once at init
		// and never mutated.
		GlobalVarAllowed: []string{
			"internal/lint/wallclock.go",
			"internal/lint/rand.go",
			"internal/lint/maporder.go",
			"internal/lint/goroutine.go",
			"internal/lint/floateq.go",
			"internal/lint/globals.go",
			"internal/lint/keycov.go",
			"internal/lint/substream.go",
			"internal/lint/noalloc.go",
		},
		KeyCoverage: []string{
			"internal/experiment:Run.key=Run",
			"internal/experiment:Options.Fingerprint=Options",
		},
	}
}

// inScope reports whether a package at the given module-relative path is
// analyzed under the config.
func (c Config) inScope(relPath string) bool {
	for _, p := range c.ScopePrefixes {
		if relPath == strings.TrimSuffix(p, "/") || strings.HasPrefix(relPath, p) {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Config Config
	Pkg    *Package

	check string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
		Scope:   declNameAt(p.Pkg, pos),
	})
}

// AllAnalyzers returns the full manetlint suite in reporting order.
func AllAnalyzers() []*Analyzer {
	return []*Analyzer{
		NoWallclock,
		NoGlobalRand,
		MapOrder,
		NoNakedGoroutine,
		FloatEq,
		GlobalMutableState,
		KeyCoverage,
		Substream,
		NoAlloc,
	}
}

// Run applies the analyzers to every in-scope package and returns the
// surviving findings (suppressions applied), sorted by position then check.
func Run(pkgs []*Package, cfg Config, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !cfg.inScope(pkg.RelPath) {
			continue
		}
		sup := suppressionsOf(pkg)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Config: cfg, Pkg: pkg, check: a.Name, diags: &pkgDiags}
			a.Run(pass)
		}
		for _, d := range pkgDiags {
			if !sup.suppressed(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// suppressions maps (file, line) to the set of check names ignored there.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) add(file string, line int, check string) {
	lines := s[file]
	if lines == nil {
		lines = make(map[int]map[string]bool)
		s[file] = lines
	}
	checks := lines[line]
	if checks == nil {
		checks = make(map[string]bool)
		lines[line] = checks
	}
	checks[check] = true
}

func (s suppressions) suppressed(d Diagnostic) bool {
	return s[d.Pos.Filename][d.Pos.Line][d.Check]
}

// suppressionsOf scans a package's comments for //lint:ignore directives.
// Each directive covers its own line and the next line.
func suppressionsOf(pkg *Package) suppressions {
	sup := make(suppressions)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check, reason, ok := parseIgnore(c.Text)
				if !ok || reason == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				sup.add(pos.Filename, pos.Line, check)
				sup.add(pos.Filename, pos.Line+1, check)
			}
		}
	}
	return sup
}

// parseIgnore decodes a "//lint:ignore <check> <reason>" comment.
func parseIgnore(text string) (check, reason string, ok bool) {
	const prefix = "//lint:ignore "
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	check, reason, _ = strings.Cut(rest, " ")
	return check, strings.TrimSpace(reason), check != ""
}

// BadSuppressions returns a finding for every //lint:ignore comment that
// lacks a reason, so suppressions stay self-documenting.
func BadSuppressions(pkgs []*Package, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !cfg.inScope(pkg.RelPath) {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					check, reason, ok := parseIgnore(c.Text)
					if ok && reason == "" {
						diags = append(diags, Diagnostic{
							Pos:     pkg.Fset.Position(c.Pos()),
							Check:   "suppression",
							Message: fmt.Sprintf("lint:ignore %s needs a reason", check),
						})
					}
				}
			}
		}
	}
	return diags
}

// annotatedLines returns, per file, the set of lines covered by a
// //lint:order-independent annotation (the annotation's line and the next).
func annotatedLines(pkg *Package, directive string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text != directive && !strings.HasPrefix(c.Text, directive+" ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					out[pos.Filename] = lines
				}
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return out
}

// walkFiles runs fn over every file of the package.
func walkFiles(p *Pass, fn func(*ast.File)) {
	for _, f := range p.Pkg.Files {
		fn(f)
	}
}
