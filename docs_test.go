package iflex_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// goNames is what the repository's Go files declare: every type, type
// parameter, func, method, field, const and var name, each package's
// top-level names, each type's methods and fields (an alias's are its
// target's), and every string literal — the names of metrics, p-functions
// and HTTP methods the code spells out.
type goNames struct {
	all, lits map[string]bool
	pkgs      map[string]map[string]bool
	members   map[string]map[string]bool
}

func declaredNames(t *testing.T) goNames {
	t.Helper()
	g := goNames{all: map[string]bool{}, lits: map[string]bool{}, pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	aliases := map[string]string{}
	member := func(typ, name string) {
		if g.members[typ] == nil {
			g.members[typ] = map[string]bool{}
		}
		g.members[typ][name], g.all[name] = true, true
	}
	fields := func(typ string, fl *ast.FieldList) {
		for _, f := range fl.List {
			for _, n := range f.Names {
				member(typ, n.Name)
			}
			if len(f.Names) == 0 { // embedded: the type's name is the field's
				x := f.Type
				if s, ok := x.(*ast.StarExpr); ok {
					x = s.X
				}
				if s, ok := x.(*ast.SelectorExpr); ok {
					x = s.Sel
				}
				if id, ok := x.(*ast.Ident); ok {
					member(typ, id.Name)
				}
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := g.pkgs[f.Name.Name]
		if pkg == nil {
			pkg = map[string]bool{}
			g.pkgs[f.Name.Name] = pkg
		}
		top := func(name string) { pkg[name], g.all[name] = true, true }
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					g.lits[strings.Trim(n.Value, "`\"")] = true
				}
			case *ast.TypeSpec:
				if n.TypeParams != nil {
					fields("", n.TypeParams)
				}
			case *ast.FuncType:
				if n.TypeParams != nil {
					fields("", n.TypeParams)
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					top(d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				for {
					switch r := recv.(type) {
					case *ast.StarExpr:
						recv = r.X
						continue
					case *ast.IndexExpr:
						recv = r.X
						continue
					case *ast.IndexListExpr:
						recv = r.X
						continue
					}
					break
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						top(s.Name.Name)
						if sel, ok := s.Type.(*ast.SelectorExpr); ok && s.Assign != 0 {
							aliases[s.Name.Name] = sel.Sel.Name
						}
						switch st := s.Type.(type) {
						case *ast.StructType:
							fields(s.Name.Name, st.Fields)
						case *ast.InterfaceType:
							fields(s.Name.Name, st.Methods)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							top(n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for alias, target := range aliases {
		g.members[alias] = g.members[target]
	}
	return g
}

// docAllowed are names the documents cite from the standard library and
// the runtime, and the packages whose names they cite as pkg.Name.
var docAllowed = map[string]bool{
	"RWMutex": true, "TryLock": true, "HeapAlloc": true, "TotalAlloc": true, "NumError": true,
	"runtime": true, "strconv": true, "strings": true, "slices": true, "http": true, "fmt": true, "unsafe": true,
}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// goRef is an identifier or a dotted selector of them, with an optional
	// pointer star before and call parentheses after.
	goRef = regexp.MustCompile(`^\*?([A-Za-z][A-Za-z0-9]*(?:\.[A-Za-z][A-Za-z0-9]*)*)(?:\(.*\))?$`)
)

// fileExt lists the suffixes that make a dotted name a file name.
var fileExt = map[string]bool{"go": true, "md": true, "json": true, "sh": true, "html": true, "alog": true,
	"ifs": true, "txt": true, "golden": true, "yml": true, "mod": true, "prof": true, "test": true, "log": true, "tmp": true}

// undeclared reports whether ref, a backticked name that reads as Go,
// names something no Go file of the repository declares. A single name
// counts as Go when it carries an upper-case letter (a lower-case word may
// be Alog, a feature or a value); in a selector X.Y, X is a type whose
// member Y must be, a package whose top-level name Y must be, or a
// variable, whose field or method Y must be declared somewhere.
func (g goNames) undeclared(ref string) bool {
	parts := strings.Split(ref, ".")
	if docAllowed[parts[0]] || docAllowed[parts[len(parts)-1]] || fileExt[parts[len(parts)-1]] || g.lits[ref] {
		return false
	}
	if len(parts) == 1 {
		return strings.ToLower(ref) != ref && !g.all[ref] && !g.all["Test"+ref] && !g.all["Benchmark"+ref]
	}
	if len(parts) > 2 && g.pkgs[parts[0]] != nil {
		parts = parts[1:]
	}
	x, y := parts[len(parts)-2], parts[len(parts)-1]
	switch {
	case g.members[x] != nil:
		return !g.members[x][y]
	case g.pkgs[x] != nil:
		return !g.pkgs[x][y]
	case !g.all[x] && strings.ToLower(x[:1]) != x[:1]:
		return true
	}
	return !g.all[y]
}

// currentDocs describe the system as it is; how it came to be is
// CHANGES.md's.
var currentDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// TestDocsNameWhatExists: every Go identifier or Type.Member the current
// documents name in backticks is declared by some Go file of the
// repository. snake_case names are metrics and JSON fields, not Go.
func TestDocsNameWhatExists(t *testing.T) {
	g := declaredNames(t)
	if !g.members["Memo"]["Intern"] || !g.pkgs["feature"]["Memo"] || !g.members["Plan"]["WithConstraint"] {
		t.Fatal("the Go files were not read")
	}
	for _, doc := range currentDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				if strings.Contains(m[1], "_") {
					continue
				}
				if r := goRef.FindStringSubmatch(m[1]); r != nil && g.undeclared(r[1]) {
					t.Errorf("%s:%d names `%s`, which no Go file declares", doc, i+1, m[1])
				}
			}
		}
	}
}

// prRef matches a pull-request number in prose, across a line break too.
var prRef = regexp.MustCompile(`\bPRs?\s+\d+`)

// TestReadmeNamesNoPR: the current documents say what the system does and
// what the benchmark reports today, so none of them names a "PR n".
func TestReadmeNamesNoPR(t *testing.T) {
	for _, doc := range currentDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range prRef.FindAllIndex(src, -1) {
			t.Errorf("%s:%d names %q", doc, 1+strings.Count(string(src[:loc[0]]), "\n"), src[loc[0]:loc[1]])
		}
	}
}

// TestDesignWithinBudget: DESIGN.md stays under the byte budget its line in
// .github/loc-budget sets ("DESIGN.md N"). A change that documents
// something new replaces text, or raises the budget by what it adds.
func TestDesignWithinBudget(t *testing.T) {
	budgets, err := os.ReadFile(filepath.Join(".github", "loc-budget"))
	if err != nil {
		t.Fatal(err)
	}
	budget := -1
	for _, line := range strings.Split(string(budgets), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "DESIGN.md" {
			if budget, err = strconv.Atoi(f[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if budget < 0 {
		t.Fatal(`.github/loc-budget has no "DESIGN.md <bytes>" line`)
	}
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(src) > budget {
		t.Errorf("DESIGN.md is %d bytes, over its budget of %d in .github/loc-budget", len(src), budget)
	}
}

var (
	// A numbered section, a subsection, and the bold lead of a paragraph
	// or list item: what a citation of DESIGN.md may name.
	designSection = regexp.MustCompile(`^## (\d+)\. (.+)`)
	designSub     = regexp.MustCompile(`^### (.+)`)
	designLead    = regexp.MustCompile(`^(?:[*-] |\d+\. )?\*\*([^*]+)\*\*`)
	// commentBreak is a line break with the comment marker of the next line
	// (Go, Makefile, YAML), so a citation reads the same across lines.
	commentBreak = regexp.MustCompile(`[ \t]*\n[ \t]*(?:(?://|#)[ \t]*)?`)
	designRef    = regexp.MustCompile(`DESIGN\.md`)
	// citeItem is one item of a citation after "DESIGN.md": a section
	// number, a quoted title, or both (§11 "The tuple loop", §10,
	// "Typed value records", ("Which reuse pays")).
	citeItem = regexp.MustCompile(`^[,;]?\s*(?:§(\d+))?,?\s*\(?(?:"([A-Z][^"]*)")?`)
)

// TestDesignCitationsResolve: every citation of DESIGN.md in the repository
// names what DESIGN.md has. A "DESIGN.md §N" names a "## N." heading; a
// quoted title after it begins a "###" heading or a bold paragraph lead of
// that section (of any section when no number is given); and a possessive,
// such as DESIGN.md's per-experiment index, begins with a heading's name,
// its title up to a colon or parenthesis. At the root only the documents
// that describe or plan the system are read: CHANGES.md records history.
func TestDesignCitationsResolve(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	titles := map[string][]string{} // section number → its titles; "" → every section's
	var names []string
	section := ""
	add := func(title string) {
		titles[section] = append(titles[section], title)
		titles[""] = append(titles[""], title)
	}
	for _, line := range strings.Split(string(src), "\n") {
		heading := ""
		if m := designSection.FindStringSubmatch(line); m != nil {
			section, heading = m[1], m[2]
		} else if m := designSub.FindStringSubmatch(line); m != nil {
			heading = m[1]
		} else if m := designLead.FindStringSubmatch(line); m != nil && section != "" {
			add(m[1])
			continue
		} else {
			continue
		}
		add(heading)
		name, _, _ := strings.Cut(heading, ":")
		name, _, _ = strings.Cut(name, "(")
		names = append(names, strings.ToLower(strings.TrimSpace(name)))
	}
	cites := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build" || d.Name() == "profiles") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			return nil
		}
		if filepath.Dir(path) == "." && filepath.Ext(path) == ".md" && path != "ROADMAP.md" && !slices.Contains(currentDocs, path) {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil || slices.Contains(raw, 0) { // a binary file cites nothing
			return err
		}
		text := commentBreak.ReplaceAllString(string(raw), " ")
		for _, loc := range designRef.FindAllStringIndex(text, -1) {
			rest := text[loc[1]:]
			if after, ok := strings.CutPrefix(rest, "'s "); ok {
				cites++
				if !slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(strings.ToLower(after), n) }) {
					t.Errorf("%s cites %.40q… of DESIGN.md, which names no heading", path, after)
				}
				continue
			}
			num := ""
			for {
				m := citeItem.FindStringSubmatch(rest)
				if m[1] == "" && m[2] == "" {
					break
				}
				rest = rest[len(m[0]):]
				cites++
				if m[1] != "" {
					num = m[1]
					if _, ok := titles[num]; !ok {
						t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", path, num, num)
						continue
					}
				}
				if m[2] != "" && !slices.ContainsFunc(titles[num], func(h string) bool { return strings.HasPrefix(h, m[2]) }) {
					t.Errorf("%s cites DESIGN.md §%s %q, which begins no heading or bold lead there", path, num, m[2])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cites == 0 {
		t.Fatal("no citation of DESIGN.md was found")
	}
}

// fuzzTarget matches a fuzz target's declaration in a test file.
var fuzzTarget = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(f \*testing\.F\)`)

// TestCIFuzzesEveryTarget: CI's fuzz job runs the targets its list names,
// one `FuzzX ./pkg` line each, so every fuzz target declared in a test
// file of the repository is listed there and every listed target exists.
func TestCIFuzzesEveryTarget(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzTarget.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]+" ./"+filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	_, list, _ := strings.Cut(string(ci), "<<'TARGETS'\n")
	listed := map[string]bool{}
	for _, line := range strings.Split(list, "\n") {
		if strings.TrimSpace(line) == "TARGETS" {
			break
		}
		listed[strings.Join(strings.Fields(line), " ")] = true
	}
	if len(declared) == 0 || len(listed) == 0 {
		t.Fatalf("%d fuzz targets declared, %d listed in ci.yml", len(declared), len(listed))
	}
	for target := range declared {
		if !listed[target] {
			t.Errorf("fuzz target %s is not in ci.yml's fuzz list", target)
		}
	}
	for target := range listed {
		if !declared[target] {
			t.Errorf("ci.yml's fuzz list names %s, which no test file declares", target)
		}
	}
}
