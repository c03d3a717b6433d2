package ozz

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// schedulingDocPackages are the packages whose exported surface
// docs/SCHEDULING.md must describe.
var schedulingDocPackages = []string{"internal/sched", "internal/engine"}

// schedulingSurface parses the scheduling-layer packages and returns two
// identifier sets: the top-level exported declarations the doc MUST name
// (types, funcs, package consts/vars), and the wider set of exported
// names the doc MAY name without being stale (adds methods, struct
// fields, interface methods, and test/benchmark functions).
func schedulingSurface(t *testing.T) (required, allowed map[string]bool) {
	t.Helper()
	required = map[string]bool{}
	allowed = map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range schedulingDocPackages {
		pkgs, err := parser.ParseDir(fset, dir, nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if !d.Name.IsExported() {
							continue
						}
						allowed[d.Name.Name] = true
						// Methods and test helpers are optional mentions;
						// only plain functions in non-test files are part
						// of the required surface.
						if d.Recv == nil && !strings.HasPrefix(d.Name.Name, "Test") &&
							!strings.HasPrefix(d.Name.Name, "Benchmark") && !strings.HasPrefix(d.Name.Name, "Fuzz") {
							required[d.Name.Name] = true
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								if s.Name.IsExported() {
									required[s.Name.Name] = true
									allowed[s.Name.Name] = true
								}
								// Struct fields and interface methods are
								// legitimate doc references.
								switch tt := s.Type.(type) {
								case *ast.StructType:
									for _, f := range tt.Fields.List {
										for _, n := range f.Names {
											if n.IsExported() {
												allowed[n.Name] = true
											}
										}
									}
								case *ast.InterfaceType:
									for _, m := range tt.Methods.List {
										for _, n := range m.Names {
											if n.IsExported() {
												allowed[n.Name] = true
											}
										}
									}
								}
							case *ast.ValueSpec:
								for _, n := range s.Names {
									if n.IsExported() {
										required[n.Name] = true
										allowed[n.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return required, allowed
}

// TestSchedulingDocComplete diffs docs/SCHEDULING.md against the exported
// surface of internal/sched and internal/engine, both ways: every exported
// top-level identifier must be named in the doc (inside backticks), and
// every capitalized identifier the doc claims (a backtick token like
// `MigrateAt` or `sched.Breakpoint`) must still exist in those packages. The
// doc therefore cannot silently rot when the scheduling layer changes, and
// the layer cannot grow API the doc ignores.
func TestSchedulingDocComplete(t *testing.T) {
	required, allowed := schedulingSurface(t)
	if len(required) == 0 {
		t.Fatal("no exported identifiers found — parser misconfigured?")
	}

	doc, err := os.ReadFile("docs/SCHEDULING.md")
	if err != nil {
		t.Fatalf("reading scheduling reference: %v", err)
	}
	spanRe := regexp.MustCompile("`([^`]+)`")
	var spans []string
	for _, m := range spanRe.FindAllStringSubmatch(string(doc), -1) {
		spans = append(spans, m[1])
	}
	inline := strings.Join(spans, " ")

	// Direction 1: every required identifier appears in some code span.
	var missing []string
	for name := range required {
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).MatchString(inline) {
			missing = append(missing, name)
		}
	}

	// Direction 2: every bare capitalized identifier the doc claims
	// (optionally package-qualified) must exist in the surface. Dotted
	// member references (`Task.Migrate`), flags, metric names, and paths
	// do not match the claim shape and are checked by other tests.
	claimRe := regexp.MustCompile(`^(?:sched\.|engine\.)?([A-Z][A-Za-z0-9]*)$`)
	testNameRe := regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z]`)
	var stale []string
	for _, span := range spans {
		m := claimRe.FindStringSubmatch(span)
		if m == nil || allowed[m[1]] {
			continue
		}
		// Root-package test names (this test, root benchmarks) are
		// legitimate references outside the two packages' surface.
		if testNameRe.MatchString(m[1]) {
			continue
		}
		stale = append(stale, span)
	}

	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("exported scheduling identifiers not documented in docs/SCHEDULING.md: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("identifiers documented in docs/SCHEDULING.md but no longer exported by internal/sched or internal/engine: %v", stale)
	}
}
