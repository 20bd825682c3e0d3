// Package lint is the engine's static-analysis suite: custom analyzers
// that machine-enforce the invariants the engine's performance story is
// built on, which previously lived only in doc comments. Five
// analyzers ship today:
//
//   - cowcheck: the raw vector accessors (Bools, Int64s, Float64s,
//     Strings) are read-only views over possibly-shared copy-on-write
//     storage; any write through them is a silent data race. Writes go
//     through Set / Permute / the Mutable* accessors, which materialize
//     a private copy first.
//   - releasecheck: every successful admission.Gate.Acquire must be
//     paired with exactly one Release, and every
//     storage.CreateSpillFile with exactly one Remove or Adopt, on every
//     path — the gate panics on a double release, and a lost release
//     over-admits forever after.
//   - ctxcheck: context.Background() / context.TODO() in internal/
//     non-test code silently severs cancellation (admission waits,
//     flight abandonment); queries must thread the caller's context.
//     Operators in internal/exec must thread Env.Ctx into goroutines
//     and mount-service requests.
//   - lockcheck: no mutex is held across a blocking operation (built
//     on the module-wide transitive mayblock fact, see mayblock.go),
//     re-acquired while held, or acquired in an order that inverts an
//     acquisition order established elsewhere in the module.
//   - statcheck: fields of mutex-guarded *Stats structs are written
//     only under a lock or via sync/atomic, Stats() accessors return
//     by-value snapshots (no receiver-aliased maps/slices escape the
//     lock), and every declared counter is actually updated somewhere.
//
// A violation the author has considered and accepted is silenced with
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory: a bare allow is itself reported. cmd/repolint runs the
// suite over the whole repository and is wired into CI.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is self-contained: this module deliberately has no
// third-party dependencies, so package loading is built on `go list`
// and go/types (see load.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring analysis.Analyzer.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:allow
	Doc  string // one-line description of the enforced invariant
	Run  func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Universe *Universe
	Pkg      *Package

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos unless an allow directive with a
// reason covers it; an allow directive without a reason is converted
// into its own diagnostic, so silencing a finding always documents why.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Universe.Fset.Position(pos)
	if d, ok := p.Universe.allowAt(position, p.Analyzer.Name); ok {
		p.Universe.usedAllows[allowKey{position.Filename, d.line, d.analyzer}] = true
		if strings.TrimSpace(d.reason) == "" {
			*p.diags = append(*p.diags, Diagnostic{
				Pos:      position,
				Analyzer: p.Analyzer.Name,
				Message:  "//lint:allow " + p.Analyzer.Name + " needs a reason",
			})
		}
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{CowCheck, ReleaseCheck, CtxCheck, LockCheck, StatCheck}
}

// Run applies the analyzers to every non-stdlib package in the
// universe and returns the surviving diagnostics sorted by position.
func Run(u *Universe, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range u.Module {
		diags = append(diags, RunPackage(u, analyzers, pkg)...)
	}
	sortDiagnostics(diags)
	return diags
}

// RunPackage applies the analyzers to a single package.
func RunPackage(u *Universe, analyzers []*Analyzer, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, az := range analyzers {
		pass := &Pass{Analyzer: az, Universe: u, Pkg: pkg, diags: &diags}
		az.Run(pass)
	}
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	line     int
	analyzer string
	reason   string
}

// allowKey identifies one directive for used-allow tracking.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// CheckAllows audits the module's //lint:allow directives for
// staleness: it runs the full suite (marking every directive that
// suppresses a diagnostic as used) and returns one diagnostic per
// module-file directive that suppressed nothing — either the violation
// it silenced has been fixed (delete the directive) or it names an
// analyzer that does not exist. Fixture directives under testdata are
// exercised by their own tests and are out of scope.
func CheckAllows(u *Universe, analyzers []*Analyzer) []Diagnostic {
	Run(u, analyzers)
	known := make(map[string]bool)
	for _, az := range analyzers {
		known[az.Name] = true
	}
	moduleFile := make(map[string]bool)
	for _, pkg := range u.Module {
		for _, f := range pkg.Files {
			moduleFile[u.Fset.Position(f.Pos()).Filename] = true
		}
	}
	var diags []Diagnostic
	for file, ds := range u.allows {
		if !moduleFile[file] {
			continue
		}
		for _, d := range ds {
			pos := token.Position{Filename: file, Line: d.line, Column: 1}
			switch {
			case !known[d.analyzer]:
				diags = append(diags, Diagnostic{
					Pos:      pos,
					Analyzer: "allowcheck",
					Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", d.analyzer),
				})
			case !u.usedAllows[allowKey{file, d.line, d.analyzer}]:
				diags = append(diags, Diagnostic{
					Pos:      pos,
					Analyzer: "allowcheck",
					Message:  fmt.Sprintf("stale //lint:allow %s: the analyzer no longer fires here; delete the directive", d.analyzer),
				})
			}
		}
	}
	sortDiagnostics(diags)
	return diags
}

// collectAllows indexes every //lint:allow directive in the files.
func (u *Universe) collectAllows(files []*ast.File) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				// A nested comment (fixtures embed "// want" expectations
				// after directives) ends the directive text.
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				fields := strings.Fields(rest)
				d := allowDirective{line: u.Fset.Position(c.Pos()).Line}
				if len(fields) > 0 {
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				file := u.Fset.Position(c.Pos()).Filename
				u.allows[file] = append(u.allows[file], d)
			}
		}
	}
}

// allowAt looks up a directive for the analyzer on the diagnostic's
// line or the line directly above it.
func (u *Universe) allowAt(pos token.Position, analyzer string) (allowDirective, bool) {
	for _, d := range u.allows[pos.Filename] {
		if d.analyzer == analyzer && (d.line == pos.Line || d.line == pos.Line-1) {
			return d, true
		}
	}
	return allowDirective{}, false
}
