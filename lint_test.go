package ozz

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestExportedDocComments enforces the observability layer's documentation
// bar: every exported identifier in internal/obs and internal/engine — and
// the core Stats surface — carries a godoc comment (the comments
// state units and determinism, which operators rely on). This is the
// repo's revive/golint-style `exported` check, without the dependency.
func TestExportedDocComments(t *testing.T) {
	var missing []string

	checkDir(t, "internal/obs", nil, &missing)
	checkDir(t, "internal/engine", nil, &missing)
	// In core only the campaign-stats surface is held to the bar here.
	checkDir(t, "internal/core", map[string]bool{"Stats": true}, &missing)

	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("missing doc comment: %s", m)
	}
}

// checkDir walks a package directory's non-test files. When only is nil,
// every exported top-level identifier is checked; otherwise just the named
// types, their fields, and their methods.
func checkDir(t *testing.T, dir string, only map[string]bool, missing *[]string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			rel := filepath.Base(path)
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					checkFunc(dir, rel, d, only, missing)
				case *ast.GenDecl:
					checkGen(dir, rel, d, only, missing)
				}
			}
		}
	}
}

// recvTypeName unwraps a method receiver to its base type name.
func recvTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func checkFunc(dir, file string, d *ast.FuncDecl, only map[string]bool, missing *[]string) {
	if !d.Name.IsExported() {
		return
	}
	if recv := recvTypeName(d); only != nil && !only[recv] {
		return
	}
	if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
		*missing = append(*missing, dir+"/"+file+": func "+d.Name.Name)
	}
}

func checkGen(dir, file string, d *ast.GenDecl, only map[string]bool, missing *[]string) {
	groupDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() || (only != nil && !only[s.Name.Name]) {
				continue
			}
			if !groupDoc && (s.Doc == nil || strings.TrimSpace(s.Doc.Text()) == "") {
				*missing = append(*missing, dir+"/"+file+": type "+s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok {
				checkFields(dir, file, s.Name.Name, st, missing)
			}
		case *ast.ValueSpec:
			if only != nil {
				continue
			}
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				// A doc on the const/var block covers its members
				// (idiomatic for enums like obs.Level's values).
				if groupDoc || (s.Doc != nil && strings.TrimSpace(s.Doc.Text()) != "") ||
					(s.Comment != nil && strings.TrimSpace(s.Comment.Text()) != "") {
					continue
				}
				*missing = append(*missing, dir+"/"+file+": "+name.Name)
			}
		}
	}
}

// checkFields requires a doc or trailing line comment on every exported
// struct field of an exported type.
func checkFields(dir, file, typeName string, st *ast.StructType, missing *[]string) {
	for _, f := range st.Fields.List {
		documented := (f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "") ||
			(f.Comment != nil && strings.TrimSpace(f.Comment.Text()) != "")
		for _, name := range f.Names {
			if name.IsExported() && !documented {
				*missing = append(*missing, dir+"/"+file+": field "+typeName+"."+name.Name)
			}
		}
	}
}

// TestConfigSurface pins the settable fields of the campaign, engine,
// fabric and repair configuration types. The rule for adding one: at
// least two non-test callers (a CLI, an example, a bench harness, a
// perfbench workload) need different values. A choice that every caller
// makes the same way is a constant, not a field; a field no caller sets
// is deleted.
func TestConfigSurface(t *testing.T) {
	want := map[string][]string{
		"internal/core.Config": {"Modules", "Bugs", "Seed", "UseSeeds",
			"Model", "Strategy", "Repair", "Obs", "Events"},
		"internal/core.Env":          {"Modules", "Bugs", "Model", "Strategy"},
		"internal/engine.Config":     {"Modules", "Bugs", "Instrumented", "Model"},
		"internal/dist.CampaignSpec": {"Modules", "Bugs", "UseSeeds", "Model"},
		"internal/repair.Options":    {"Model", "MaxFences", "Metrics"},
	}
	for key, fields := range want {
		dir, typeName, _ := strings.Cut(key, ".")
		got := exportedFields(t, dir, typeName)
		if strings.Join(got, " ") != strings.Join(fields, " ") {
			t.Errorf("%s fields = %v, want %v", key, got, fields)
		}
	}
}

// exportedFields returns the exported field names of struct type
// typeName, declared in a non-test file of dir, in declaration order.
func exportedFields(t *testing.T, dir, typeName string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != typeName {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						t.Fatalf("%s.%s is not a struct", dir, typeName)
					}
					var names []string
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if name.IsExported() {
								names = append(names, name.Name)
							}
						}
					}
					return names
				}
			}
		}
	}
	t.Fatalf("type %s not found in %s", typeName, dir)
	return nil
}

// testOnlyAllowlist names the exported identifiers that only tests use
// but that stay exported, because a test in another package needs them.
// Each entry names that test. Keys are "dir.Name" or "dir.Type.Method",
// with dir relative to the repository root ("ozz" for the root package).
// An entry that non-test code comes to use is stale and fails the lint.
var testOnlyAllowlist = map[string]string{
	// The §2.3 interleaving-only baseline (EXPERIMENTS.md): no harness
	// runs it, but TestEngineConformance (conformance_test.go) pins its
	// blindness to OOO bugs in testdata/engine_golden.json.
	"internal/baseline/inorder.NewInterleaver":   "TestEngineConformance",
	"internal/baseline/inorder.Interleaver.Hunt": "TestEngineConformance",
	// The exposition parser and its label lookup:
	// TestObservabilityRegistryCoverage (observability_test.go) and
	// TestUnregisteredStrategyPublishes (internal/engine) read scraped
	// metrics back through them.
	"internal/obs.ParseText":  "TestObservabilityRegistryCoverage, TestUnregisteredStrategyPublishes",
	"internal/obs.Sample.Get": "TestObservabilityRegistryCoverage, TestUnregisteredStrategyPublishes",
	// The interrupt-injection ablation (§3.1, DESIGN.md row 18): no
	// campaign delivers interrupts, but internal/core's interruptOOO
	// test strategy does, for TestAblationInterrupts,
	// TestInterruptInjectionDefeatsStoreTest and
	// TestInterruptDoesNotAffectLoadTest.
	"internal/oemu.Thread.Interrupt": "TestAblationInterrupts, TestInterruptInjectionDefeatsStoreTest, TestInterruptDoesNotAffectLoadTest",
}

// TestNoTestOnlyExports fails on an exported identifier that no non-test
// code uses: every exported package-level func, type, const and var, and
// every exported method, needs a use in a non-test file of this module or
// of perfbench (a separate module that imports ozz/internal/...).
// Otherwise it is deleted, or moved into an export_test.go when a test in
// its own package needs it. Struct fields are not checked; a method with
// the name and signature of an interface method the checker saw (String,
// Error, a Strategy's Pair, ...) and package main are exempt.
func TestNoTestOnlyExports(t *testing.T) {
	l := loadTree(t)
	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		used[originOf(obj)] = true
	}
	for _, sel := range l.info.Selections {
		used[originOf(sel.Obj())] = true
	}
	// ifaceMethods holds the signatures of every interface method the
	// checker saw, by name: a method matching one may be called through
	// the interface, which the Uses and Selections maps do not show.
	ifaceMethods := map[string][]types.Type{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				ifaceMethods[m.Name()] = append(ifaceMethods[m.Name()], m.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, tv := range l.info.Types {
		addIface(tv.Type)
	}
	for _, pkg := range l.pkgs {
		for _, dep := range append(pkg.Imports(), pkg) {
			for _, name := range dep.Scope().Names() {
				if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
	}

	var hits []string
	allowed := map[string]bool{}
	for path, pkg := range l.pkgs {
		if pkg.Name() == "main" {
			continue
		}
		dir := strings.TrimPrefix(path, "ozz/")
		flag := func(name string, obj types.Object) {
			if !used[obj] && obj.Exported() {
				key := dir + "." + name
				if _, ok := testOnlyAllowlist[key]; ok {
					allowed[key] = true
				} else {
					hits = append(hits, key)
				}
			}
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			flag(name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !slices.ContainsFunc(ifaceMethods[m.Name()], func(sig types.Type) bool {
					return types.Identical(sig, m.Type()) // receivers are ignored
				}) {
					flag(name+"."+m.Name(), m)
				}
			}
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Errorf("exported but used only by tests (delete it, move it into export_test.go, or allowlist it): %s", h)
	}
	for key := range testOnlyAllowlist {
		if !allowed[key] {
			t.Errorf("stale allowlist entry (no such identifier, or non-test code uses it): %s", key)
		}
	}
}

// fieldAllowlist names the exported struct fields that only tests read
// but that stay, because a test in another package needs them. Each
// entry names that test. Keys are "dir.Type.Field", with dir as in
// testOnlyAllowlist. An entry that non-test code comes to read is stale
// and fails the lint.
var fieldAllowlist = map[string]string{
	// A scraped sample's name and value: ParseText's output, which
	// TestObservabilityRegistryCoverage (observability_test.go) and
	// TestUnregisteredStrategyPublishes (internal/engine) read back.
	"internal/obs.Sample.Name":  "TestObservabilityRegistryCoverage, TestUnregisteredStrategyPublishes",
	"internal/obs.Sample.Value": "TestObservabilityRegistryCoverage, TestUnregisteredStrategyPublishes",
	// The paper's §6.4 ground truth for each bug: whether OFence's
	// paired-barrier patterns cover it. TestTable3Coverage
	// (internal/baseline/ofence) and TestRunOFenceCounts (internal/bench)
	// check the static matcher against it.
	"internal/modules.BugInfo.OFencePattern": "TestTable3Coverage, TestRunOFenceCounts",
}

// TestNoTestOnlyFields fails on an exported field of a package-level
// struct type that no non-test code of this module or of perfbench
// reads. A read is any selector use of the field other than the direct
// left side of = or :=; a composite-literal key is a write. A field only
// tests read is deleted, or allowlisted (fieldAllowlist) when a test in
// another package needs it. Embedded fields, JSON-tagged fields
// (encoding/json reads them) and package main are exempt.
func TestNoTestOnlyFields(t *testing.T) {
	l := loadTree(t)
	read := map[*types.Var]bool{}
	for _, f := range l.files {
		assigned := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							assigned[sel] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if sel := l.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !assigned[n] {
					read[sel.Obj().(*types.Var).Origin()] = true
				}
			}
			return true
		})
	}

	var hits []string
	allowed := map[string]bool{}
	for path, pkg := range l.pkgs {
		if pkg.Name() == "main" {
			continue
		}
		dir := strings.TrimPrefix(path, "ozz/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() || read[f] {
					continue
				}
				if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
					continue
				}
				key := dir + "." + name + "." + f.Name()
				if _, ok := fieldAllowlist[key]; ok {
					allowed[key] = true
				} else {
					hits = append(hits, key)
				}
			}
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Errorf("exported field read only by tests (delete it or allowlist it): %s", h)
	}
	for key := range fieldAllowlist {
		if !allowed[key] {
			t.Errorf("stale allowlist entry (no such field, or non-test code reads it): %s", key)
		}
	}
}

// treeLoader type-checks this repository's packages from their non-test
// files, sharing one types.Info, and the standard library from source.
type treeLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File // every checked file of the repository's packages
	info  *types.Info
}

var (
	treeOnce sync.Once
	tree     *treeLoader
	treeErr  error
)

// loadTree type-checks every package of the repository once per test
// binary; the lints that need the whole tree share the result.
func loadTree(t *testing.T) *treeLoader {
	t.Helper()
	treeOnce.Do(func() {
		l := &treeLoader{
			fset: token.NewFileSet(),
			pkgs: map[string]*types.Package{},
			info: &types.Info{
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Types:      map[ast.Expr]types.TypeAndValue{},
			},
		}
		l.std = importer.ForCompiler(l.fset, "source", nil)
		treeErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			_, err = l.Import(importPathOf(path))
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		})
		tree = l
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

// importPathOf maps a directory relative to the repository root to its
// import path; perfbench's module path is ozz/perfbench.
func importPathOf(dir string) string {
	if dir == "." {
		return "ozz"
	}
	return "ozz/" + filepath.ToSlash(dir)
}

func (l *treeLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := strings.CutPrefix(path, "ozz/")
	if path == "ozz" {
		dir, ok = ".", true
	}
	if !ok {
		return l.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err == nil && len(bp.GoFiles) == 0 {
		err = &build.NoGoError{Dir: dir}
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files = append(l.files, files...)
	return pkg, nil
}

// originOf maps a use of an instantiated generic function or method to
// its declaration.
func originOf(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}
