package pombm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleNames is what README may name in the module: for every non-main
// package (keyed by package name) its top-level declarations, the members of
// each type, every method name, and the Test/Benchmark/Fuzz functions of its
// _test.go files.
type moduleNames struct {
	decls   map[string]map[string]bool // pkg → top-level names
	members map[string]map[string]bool // pkg → "Type.Field", "Type.Method"
	methods map[string]map[string]bool // pkg → method names of any type
	tests   map[string]map[string]bool // pkg → Test*/Benchmark*/Fuzz*
}

func add(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][v] = true
}

// loadModuleNames parses every Go file of the module outside benchmark/
// (its own module), testdata and dot directories.
func loadModuleNames(t *testing.T) *moduleNames {
	t.Helper()
	n := &moduleNames{
		decls:   map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		methods: map[string]map[string]bool{},
		tests:   map[string]map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			return nil
		}
		n.addDecls(pkg, f, strings.HasSuffix(path, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func (n *moduleNames) addDecls(pkg string, f *ast.File, test bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			switch {
			case d.Recv != nil:
				if !test {
					add(n.members, pkg, strings.TrimPrefix(recvType(d.Recv.List[0].Type), "*")+"."+name)
					add(n.methods, pkg, name)
				}
			case test:
				for _, p := range []string{"Test", "Benchmark", "Fuzz"} {
					if strings.HasPrefix(name, p) {
						add(n.tests, pkg, name)
					}
				}
			default:
				add(n.decls, pkg, name)
			}
		case *ast.GenDecl:
			if test {
				continue
			}
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(n.decls, pkg, s.Name.Name)
					var fields *ast.FieldList
					switch x := s.Type.(type) {
					case *ast.StructType:
						fields = x.Fields
					case *ast.InterfaceType:
						fields = x.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, id := range fld.Names {
							add(n.members, pkg, s.Name.Name+"."+id.Name)
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(n.decls, pkg, id.Name)
					}
				}
			}
		}
	}
}

// resolve reports whether pkg.a (b == "") or pkg.a.b names something.
func (n *moduleNames) resolve(pkg, a, b string) bool {
	if b != "" {
		return n.members[pkg][a+"."+b]
	}
	return n.decls[pkg][a] || n.methods[pkg][a] || n.tests[pkg][a]
}

var (
	fence    = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\\n]*$")
	codeSpan = regexp.MustCompile("`([^`]+)`")
	qualID   = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	goRun    = regexp.MustCompile(`go run \./cmd/([\w-]+)([^|;&#` + "`" + `]*)`)
	flagArg  = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w.-]*)`)
	mdFile   = regexp.MustCompile(`^[\w./-]+\.md$`)
)

// A readmeRun is one mode README runs, and one -flag it hands that mode
// ("" for a run that passes none).
type readmeRun struct{ bin, mode, flag, text string }

// readmeRuns lists every run README makes of a binary: on a line (with its
// backslash continuations) that runs go run ./cmd/<bin>, and in a code span
// that starts with the binary's name and goes on.
func readmeRuns(readme string, spans [][]string, bins map[string]map[string]map[string]bool) (runs []readmeRun) {
	add := func(bin, rest, text string) {
		mode, args, _ := strings.Cut(strings.TrimSpace(rest), " ")
		runs = append(runs, readmeRun{bin, mode, "", text})
		for _, f := range flagArg.FindAllStringSubmatch(args, -1) {
			runs = append(runs, readmeRun{bin, mode, f[1], text})
		}
	}
	lines := strings.Split(readme, "\n")
	for i := 0; i < len(lines); i++ {
		logical := lines[i]
		for strings.HasSuffix(strings.TrimSpace(logical), `\`) && i+1 < len(lines) {
			i++
			logical = strings.TrimSuffix(strings.TrimSpace(logical), `\`) + " " + lines[i]
		}
		for _, m := range goRun.FindAllStringSubmatch(logical, -1) {
			add(m[1], m[2], strings.TrimSpace(m[0]))
		}
	}
	for _, m := range spans {
		span := strings.Join(strings.Fields(m[1]), " ")
		if bin, rest, ok := strings.Cut(span, " "); ok && bins[bin] != nil {
			add(bin, rest, span)
		}
	}
	return runs
}

// TestReadmeNamesResolve keeps README from naming what the tree no longer
// has: every backticked pkg.Ident (or pkg.Type.Member) outside fenced code
// must be a declaration, a member, a method (README's pkg.Method shorthand)
// or a test of that package, every run of a binary must name one of its
// modes and hand it only flags that mode defines (as the built binary's
// usage lists them), and every backticked *.md name must be a file of the
// repository (its path from the root).
func TestReadmeNamesResolve(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := loadModuleNames(t)
	readme := string(src)
	spans := codeSpan.FindAllStringSubmatch(fence.ReplaceAllString(readme, ""), -1)

	idents := 0
	for _, m := range spans {
		for _, q := range qualID.FindAllStringSubmatch(m[1], -1) {
			pkg, a, b := q[1], q[2], q[3]
			if names.decls[pkg] == nil {
				continue // not a package of the module: a file name, a host, a metric
			}
			idents++
			if !names.resolve(pkg, a, b) {
				t.Errorf("README names `%s`, which package %s does not declare", q[0], pkg)
			}
		}
	}

	for _, m := range spans {
		if mdFile.MatchString(m[1]) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("README names `%s`, which is not a file of the repository", m[1])
			}
		}
	}

	bins := cliBinaries(t, t.TempDir())
	flags := 0
	for _, r := range readmeRuns(readme, spans, bins) {
		if r.flag != "" {
			flags++
		}
		switch modes := bins[r.bin]; {
		case modes == nil:
			if r.flag == "" {
				t.Errorf("README runs %s, which is not a binary under cmd/: %q", r.bin, r.text)
			}
		case modes[r.mode] == nil:
			if r.flag == "" {
				t.Errorf("README runs %s with %q, which is not one of its modes: %q", r.bin, r.mode, r.text)
			}
		case r.flag == "" || r.flag == "h" || r.flag == "help":
		case !modes[r.mode][r.flag]:
			t.Errorf("README passes -%s to %s %s, which defines no such flag: %q", r.flag, r.bin, r.mode, r.text)
		}
	}
	if idents == 0 || flags == 0 {
		t.Fatalf("found %d identifier and %d flag references: the scan is broken", idents, flags)
	}
	t.Logf("checked %d identifier references and %d flag references", idents, flags)
}
