package main

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

var (
	// docFiles' backticked code names must resolve.  In them, citeFiles
	// and the Go files, a DESIGN §n citation must name a `## n.` heading.
	docFiles  = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "benchmark/README.md"}
	citeFiles = []string{"Makefile", "cover/REACH.txt", ".claude/skills/verify/SKILL.md"}
	// codeName is `pkg.Name`, `pkg.Type.Member`, `Type.Member` or
	// `*Type.Member`, optionally called.
	codeName   = regexp.MustCompile(`^\*?(\w+)\.(\w+)(?:\.(\w+))?(?:\(\))?$`)
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	fence      = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	notNewline = regexp.MustCompile(`[^\n]`)
	citation   = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)+§(\d+|"([^"]+)")`)
	allowLine  = regexp.MustCompile(`(?m)^([^#\s]\S*)[ \t]+\S`)
)

// namesFile allows code names that nothing declares, one a line: NAME
// WHY...  A line whose name resolves fails; one without a WHY allows
// nothing.
const namesFile = "cover/NAMES.txt"

// decls is what the module declares.  names holds every package, and
// every "pkg.Name" and "pkg.Type.Member".  embeds maps "pkg.Type" to the
// types it embeds, and a bare type name to every "pkg.Type" so named,
// so that has finds a member through either.
type decls struct {
	names  map[string]bool
	embeds map[string][]string
}

// declare reads the Go files among files (path → text), tests included.
func declare(files map[string]string) (*decls, error) {
	d := &decls{map[string]bool{}, map[string][]string{}}
	for file, src := range files {
		if !strings.HasSuffix(file, ".go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		d.names[pkg] = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl: // a method's owner is its receiver type; no body is walked
				owner := pkg
				if n.Recv != nil {
					owner = typeOf(pkg, n.Recv.List[0].Type)
				}
				d.names[owner+"."+n.Name.Name] = true
				return false
			case *ast.ValueSpec:
				for _, id := range n.Names {
					d.names[pkg+"."+id.Name] = true
				}
			case *ast.TypeSpec: // every field, method or embedding inside is the type's
				t := pkg + "." + n.Name.Name
				d.names[t], d.embeds[n.Name.Name] = true, append(d.embeds[n.Name.Name], t)
				ast.Inspect(n.Type, func(m ast.Node) bool {
					if fl, ok := m.(*ast.Field); ok && fl.Names == nil {
						d.embeds[t] = append(d.embeds[t], typeOf(pkg, fl.Type))
					} else if ok {
						for _, id := range fl.Names {
							d.names[t+"."+id.Name] = true
						}
					}
					return true
				})
				return false
			}
			return true
		})
	}
	return d, nil
}

// typeOf names a receiver or embedded type "pkg.Type".
func typeOf(pkg string, e ast.Expr) string {
	t, _, _ := strings.Cut(strings.TrimLeft(types.ExprString(e), "*"), "[")
	if !strings.Contains(t, ".") {
		t = pkg + "." + t
	}
	return t
}

// has reports whether t (a package, a "pkg.Type" or a bare type name)
// has member m, declared or promoted.
func (d *decls) has(t, m string) bool {
	for _, e := range d.embeds[t] {
		if e != t && d.has(e, m) {
			return true
		}
	}
	return d.names[t+"."+m]
}

// resolve says whether span is a code name and if so whether it names a
// declaration.  It is one when its first part is one of the module's
// packages or types, and its last part is exported or its first a type;
// an all-lowercase span (`byz.commits`, `run.go`) never is.
func (d *decls) resolve(span string) (code, ok bool) {
	m := codeName.FindStringSubmatch(span)
	if m == nil || strings.ToLower(span) == span ||
		d.embeds[m[1]] == nil && (!d.names[m[1]] || !token.IsExported(cmp.Or(m[3], m[2]))) {
		return false, false
	}
	if m[3] != "" {
		return true, d.has(m[1]+"."+m[2], m[3])
	}
	return true, d.has(m[1], m[2])
}

// checkDocs holds the documents among files (path → text) to the Go
// files among them.
func checkDocs(files map[string]string) (string, error) {
	d, err := declare(files)
	if err != nil {
		return "", err
	}
	var problems []string
	bad := func(file, text string, at int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s:%d: ", file, 1+strings.Count(text[:at], "\n"))+fmt.Sprintf(format, args...))
	}
	allow, listed, names := files[namesFile], map[string]bool{}, 0
	for _, m := range allowLine.FindAllStringSubmatchIndex(allow, -1) {
		name := allow[m[2]:m[3]]
		listed[name] = true
		if _, ok := d.resolve(name); ok {
			bad(namesFile, allow, m[0], "`%s` resolves now; remove the line", name)
		}
	}
	for _, file := range docFiles {
		// Fenced blocks hold no spans: blank them, keeping the newlines.
		text := files[file]
		blank := fence.ReplaceAllStringFunc(text, func(s string) string { return notNewline.ReplaceAllString(s, " ") })
		for _, m := range codeSpan.FindAllStringSubmatchIndex(blank, -1) {
			span := text[m[2]:m[3]]
			if code, ok := d.resolve(span); code && !ok && !listed[span] {
				bad(file, text, m[0], "`%s` names nothing the module declares", span)
			} else if code {
				names++
			}
		}
	}
	design := "\n" + files["DESIGN.md"]
	for file, text := range files {
		for _, m := range citation.FindAllStringSubmatchIndex(text, -1) {
			if m[4] < 0 && !strings.Contains(design, "\n## "+text[m[2]:m[3]]+". ") || m[4] >= 0 && !strings.Contains(design, text[m[4]:m[5]]) {
				bad(file, text, m[0], "DESIGN §%s names no section of DESIGN.md", text[m[2]:m[3]])
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return "", fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return fmt.Sprintf("%d code names in %d documents resolve or are allowed by %s", names, len(docFiles), namesFile), nil
}

// docGate reads the Go files under the working directory and the files
// checkDocs reads by name, and checks them.
func docGate() (string, error) {
	files, named := map[string]string{}, append(append([]string{namesFile}, docFiles...), citeFiles...)
	err := filepath.WalkDir(".", func(p string, _ fs.DirEntry, err error) error {
		if err == nil && (strings.HasSuffix(p, ".go") || slices.Contains(named, p)) {
			var b []byte
			b, err = os.ReadFile(p)
			files[p] = string(b)
		}
		return err
	})
	if err != nil {
		return "", err
	}
	return checkDocs(files)
}
