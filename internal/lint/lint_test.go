package lint

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The analyzer tests follow the x/tools analysistest protocol: fixture
// packages under testdata/src/ carry `// want "regexp"` comments on the
// lines where diagnostics are expected; a test fails on any unexpected
// diagnostic and on any unmatched expectation. Fixtures import the
// engine's real packages (vector, admission, storage, mountsvc), so the
// analyzers are exercised against the real types they guard.

var (
	loadOnce sync.Once
	sharedU  *Universe
	loadErr  error
)

// universe loads the module (plus the stdlib packages fixtures import)
// once per test binary.
func universe(t *testing.T) *Universe {
	t.Helper()
	loadOnce.Do(func() {
		root, err := findModuleRoot()
		if err != nil {
			loadErr = err
			return
		}
		sharedU, loadErr = Load(root, "./...", "sort", "context", "errors")
	})
	if loadErr != nil {
		t.Fatalf("loading universe: %v", loadErr)
	}
	return sharedU
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// expectation is one parsed `// want` comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantPat = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants extracts expectations from a fixture package's comments.
// The marker may be a standalone comment or embedded after another
// (fixtures append it to //lint:allow directives under test).
func parseWants(t *testing.T, u *Universe, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				matches := wantPat.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range matches {
					src := m[1]
					if src == "" {
						src = m[2]
					}
					re, err := regexp.Compile(src)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, src, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runFixture loads one fixture package under a synthetic import path,
// runs a single analyzer over it, and matches diagnostics against the
// fixture's want comments.
func runFixture(t *testing.T, az *Analyzer, fixture, pkgPath string) {
	t.Helper()
	u := universe(t)
	pkg, err := u.LoadFixture(filepath.Join("testdata", "src", fixture), pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags := RunPackage(u, []*Analyzer{az}, pkg)
	wants := parseWants(t, u, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestCowCheckFixture(t *testing.T) {
	runFixture(t, CowCheck, "cowfix", "fixture/internal/cowfix")
}

func TestReleaseCheckFixture(t *testing.T) {
	runFixture(t, ReleaseCheck, "releasefix", "fixture/internal/releasefix")
}

// TestSpillFixture covers releasecheck's spill-file pairing: every
// storage.CreateSpillFile must settle its handle with exactly one
// Remove or Adopt on every path, unless the handle escapes.
func TestSpillFixture(t *testing.T) {
	runFixture(t, ReleaseCheck, "spillfix", "fixture/internal/spillfix")
}

// TestStatsFixtureClean* pin the analyzers' false-positive rate on the
// statistics-free planner's idioms: statsfix mirrors the oracle's code
// shapes (read-only view scans, private copies, threaded contexts) and
// carries no want comments — any diagnostic at all fails the test.
func TestStatsFixtureCleanCow(t *testing.T) {
	runFixture(t, CowCheck, "statsfix", "fixture/internal/statsfix")
}

func TestStatsFixtureCleanCtx(t *testing.T) {
	runFixture(t, CtxCheck, "statsfix", "fixture/internal/statsfix")
}

func TestCtxCheckFixture(t *testing.T) {
	runFixture(t, CtxCheck, "ctxfix", "fixture/internal/ctxfix")
}

func TestCtxCheckExecFixture(t *testing.T) {
	// The synthetic path ends internal/exec, switching on the
	// operator-package rules (goroutine and Request-literal threading).
	runFixture(t, CtxCheck, "execfix", "fixture/internal/exec")
}

func TestLockCheckFixture(t *testing.T) {
	runFixture(t, LockCheck, "lockcheckfix", "fixture/internal/lockcheckfix")
}

func TestStatCheckFixture(t *testing.T) {
	runFixture(t, StatCheck, "statcheckfix", "fixture/internal/statcheckfix")
}

// TestLockFixtureClean* / TestStatFixtureClean* pin the concurrency
// analyzers' false-positive rate on the engine's own idioms (ticket
// handoff, cond.Wait loops, double-checked promotion, spill settle,
// callback-guarded stats, per-entry snapshot copies): the fixtures
// carry no want comments, so any diagnostic at all fails.
func TestLockFixtureCleanLock(t *testing.T) {
	runFixture(t, LockCheck, "lockfix", "fixture/internal/lockfix")
}

func TestLockFixtureCleanStat(t *testing.T) {
	runFixture(t, StatCheck, "lockfix", "fixture/internal/lockfix-stat")
}

func TestStatFixtureCleanStat(t *testing.T) {
	runFixture(t, StatCheck, "statfix", "fixture/internal/statfix")
}

func TestStatFixtureCleanLock(t *testing.T) {
	runFixture(t, LockCheck, "statfix", "fixture/internal/statfix-lock")
}

// TestMayBlockPropagatesAcrossPackages pins the transitivity of the
// module-wide mayblock fact: par.ForEachOrdered blocks directly
// (range over its results channel), so ingest's parallel loaders —
// which call it from another package — are classified blocking too,
// while a pure function stays non-blocking.
func TestMayBlockPropagatesAcrossPackages(t *testing.T) {
	u := universe(t)
	lookup := func(pkgPath, name string) *types.Func {
		t.Helper()
		pkg, ok := u.Packages[pkgPath]
		if !ok {
			t.Fatalf("package %s not in universe", pkgPath)
		}
		fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("%s.%s is not a function", pkgPath, name)
		}
		return fn
	}
	if _, ok := u.MayBlock(lookup("repro/internal/par", "ForEachOrdered")); !ok {
		t.Errorf("par.ForEachOrdered should be classified as blocking")
	}
	if _, ok := u.MayBlock(lookup("repro/internal/ingest", "LoadMetadataParallel")); !ok {
		t.Errorf("ingest.LoadMetadataParallel should be classified as blocking")
	}
	if chain, ok := u.MayBlock(lookup("repro/internal/plan", "Subsumes")); ok {
		t.Errorf("plan.Subsumes should not block (chain %q)", chain)
	}
}

// TestNoStaleAllows is -checkallows in miniature: every //lint:allow
// in module files must still suppress a live diagnostic.
func TestNoStaleAllows(t *testing.T) {
	u := universe(t)
	for _, d := range CheckAllows(u, Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestRepositoryIsClean is the CI gate in miniature: the full suite
// over the whole module must be quiet. Any new violation fails here
// (and in the lint CI job) until fixed or explicitly allowed.
func TestRepositoryIsClean(t *testing.T) {
	u := universe(t)
	diags := Run(u, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestAllowRequiresReason pins the escape hatch's contract: a bare
// //lint:allow silences nothing and is itself reported.
func TestAllowRequiresReason(t *testing.T) {
	u := universe(t)
	pkg, err := u.LoadFixture(filepath.Join("testdata", "src", "ctxfix"), "fixture/internal/ctxfix-reason")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunPackage(u, []*Analyzer{CtxCheck}, pkg)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "needs a reason") {
			found = true
		}
	}
	if !found {
		t.Errorf("bare //lint:allow was not reported; diagnostics: %v", diags)
	}
}
