package ozz

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedDocComments enforces the observability layer's documentation
// bar: every exported identifier in internal/obs and internal/engine — and
// the core Stats/PerfStats surface — carries a godoc comment (the comments
// state units and determinism, which operators rely on). This is the
// repo's revive/golint-style `exported` check, without the dependency.
func TestExportedDocComments(t *testing.T) {
	var missing []string

	checkDir(t, "internal/obs", nil, &missing)
	checkDir(t, "internal/engine", nil, &missing)
	// In core only the campaign-stats surface is held to the bar here.
	checkDir(t, "internal/core", map[string]bool{"Stats": true, "PerfStats": true}, &missing)

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
		"internal/core.Config": {"Modules", "Bugs", "Seed", "UseSeeds", "InterruptOnSwitch",
			"Model", "Strategy", "Repair", "Obs", "Events"},
		"internal/core.Env":          {"Modules", "Bugs", "InterruptOnSwitch", "Model", "Strategy"},
		"internal/engine.Config":     {"Modules", "Bugs", "Instrumented", "Sanitizers", "InterruptOnSwitch", "Model"},
		"internal/dist.CampaignSpec": {"Modules", "Bugs", "UseSeeds", "Model"},
		"internal/repair.Options":    {"Model", "MaxFences", "Workers", "Metrics"},
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
