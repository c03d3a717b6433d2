package ozz

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ozz/internal/dist"
	"ozz/internal/obs"
)

// protocolSurface is everything internal/dist/protocol.go declares on the
// wire: endpoint paths (the Path* constants), exported message struct
// names, and the union of their json field tags.
type protocolSurface struct {
	endpoints map[string]bool // const values of Path* ("/register", ...)
	types     map[string]bool // exported struct type names
	fields    map[string]bool // json tags across those structs
}

// parseProtocol extracts the wire surface from protocol.go with go/parser,
// so the doc test tracks the source of truth rather than a hand-kept list.
func parseProtocol(t *testing.T) protocolSurface {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join("internal", "dist", "protocol.go"), nil, 0)
	if err != nil {
		t.Fatalf("parsing protocol.go: %v", err)
	}
	s := protocolSurface{
		endpoints: map[string]bool{},
		types:     map[string]bool{},
		fields:    map[string]bool{},
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch sp := spec.(type) {
			case *ast.ValueSpec:
				for i, name := range sp.Names {
					if !strings.HasPrefix(name.Name, "Path") || i >= len(sp.Values) {
						continue
					}
					if lit, ok := sp.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						path, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatalf("unquoting %s: %v", name.Name, err)
						}
						s.endpoints[path] = true
					}
				}
			case *ast.TypeSpec:
				st, ok := sp.Type.(*ast.StructType)
				if !ok || !sp.Name.IsExported() {
					continue
				}
				s.types[sp.Name.Name] = true
				for _, field := range st.Fields.List {
					if field.Tag == nil {
						continue
					}
					raw, err := strconv.Unquote(field.Tag.Value)
					if err != nil {
						continue
					}
					tag := reflect.StructTag(raw).Get("json")
					if name, _, _ := strings.Cut(tag, ","); name != "" && name != "-" {
						s.fields[name] = true
					}
				}
			}
		}
	}
	if len(s.endpoints) == 0 || len(s.types) == 0 || len(s.fields) == 0 {
		t.Fatalf("protocol.go surface came back empty: %+v", s)
	}
	return s
}

// distIdentifiers collects every exported top-level identifier of package
// dist — types, funcs, consts, vars, and exported fields of exported
// structs — across all its files, test files included. The doc may
// reference any of these by backticked name; anything else is a typo or a
// rename the doc missed.
func distIdentifiers(t *testing.T) map[string]bool {
	t.Helper()
	idents := map[string]bool{
		// Referenced by docs/DISTRIBUTED.md but declared in this package,
		// one level up from internal/dist.
		"TestDistributedDocComplete": true,
	}
	dir := filepath.Join("internal", "dist")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					idents[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() {
								idents[name.Name] = true
							}
						}
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						idents[sp.Name.Name] = true
						if st, ok := sp.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, name := range field.Names {
									if name.IsExported() {
										idents[name.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return idents
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestDistributedDocComplete diffs docs/DISTRIBUTED.md against the fabric's
// actual surface, both ways, mirroring TestObservabilityDocComplete:
//
//   - every ozz_dist_* metric family a fabric node registers is
//     documented, and every documented ozz_dist_* token is registered;
//   - every endpoint path constant of protocol.go (plus /metrics) is
//     documented, and every documented backticked /path is real;
//   - every exported message type of protocol.go is documented, and every
//     backticked CamelCase token in the doc names a real dist identifier;
//   - every json field tag of protocol.go appears backticked in the doc.
func TestDistributedDocComplete(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "DISTRIBUTED.md"))
	if err != nil {
		t.Fatalf("reading fabric ops guide: %v", err)
	}
	text := string(doc)
	surface := parseProtocol(t)

	// Metric families, both directions. Manager and worker register the
	// same families, so building a worker registers all of them.
	reg := obs.NewRegistry()
	dist.NewWorker(dist.WorkerConfig{Obs: reg})
	registered := map[string]bool{}
	for _, n := range reg.Names() {
		if strings.HasPrefix(n, "ozz_dist_") {
			registered[n] = true
		}
	}
	documented := map[string]bool{}
	for _, tok := range regexp.MustCompile(`ozz_dist_[a-z0-9_]+`).FindAllString(text, -1) {
		// Exposition-level suffixes refer to their histogram family.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(tok, suffix); registered[base] {
				tok = base
				break
			}
		}
		documented[tok] = true
	}
	var missing, stale []string
	for n := range registered {
		if !documented[n] {
			missing = append(missing, n)
		}
	}
	for n := range documented {
		if !registered[n] {
			stale = append(stale, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("fabric metrics registered but not documented in docs/DISTRIBUTED.md: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("fabric metrics documented in docs/DISTRIBUTED.md but not registered: %v", stale)
	}

	// Endpoints, both directions. /metrics is served off the same listener
	// but lives in manager.go, not the Path* block.
	wantEndpoints := map[string]bool{"/metrics": true}
	for p := range surface.endpoints {
		wantEndpoints[p] = true
	}
	docEndpoints := map[string]bool{}
	for _, m := range regexp.MustCompile("`(/[a-z]+)`").FindAllStringSubmatch(text, -1) {
		docEndpoints[m[1]] = true
	}
	for _, p := range sortedKeys(wantEndpoints) {
		if !docEndpoints[p] {
			t.Errorf("endpoint %s is not documented in docs/DISTRIBUTED.md", p)
		}
	}
	for _, p := range sortedKeys(docEndpoints) {
		if !wantEndpoints[p] {
			t.Errorf("docs/DISTRIBUTED.md documents endpoint %s, which protocol.go does not define", p)
		}
	}

	// Backticked identifiers: every protocol message type must appear, and
	// every CamelCase token the doc backticks must be a real identifier.
	backticked := map[string]bool{}
	for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(text, -1) {
		backticked[m[1]] = true
	}
	for _, name := range sortedKeys(surface.types) {
		if !backticked[name] {
			t.Errorf("protocol message type %s is not documented in docs/DISTRIBUTED.md", name)
		}
	}
	idents := distIdentifiers(t)
	camel := regexp.MustCompile(`^[A-Z][A-Za-z0-9]*$`)
	for _, tok := range sortedKeys(backticked) {
		if camel.MatchString(tok) && !idents[tok] {
			t.Errorf("docs/DISTRIBUTED.md references `%s`, which package dist does not declare", tok)
		}
	}

	// Wire fields: every json tag of protocol.go appears backticked.
	for _, tag := range sortedKeys(surface.fields) {
		if !backticked[tag] {
			t.Errorf("wire field %q of protocol.go is not documented in docs/DISTRIBUTED.md", tag)
		}
	}
}
