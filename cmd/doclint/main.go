// doclint is the documentation gate behind `make doc-lint`: it keeps the
// prose and the code from drifting apart without a human having to notice.
//
//	doclint    # from the repository root
//
// Two checks, both fatal on failure:
//
//  1. Godoc coverage. Every exported identifier (type, function, method,
//     and exported struct field) in the listed packages must carry a doc
//     comment. The packages are the ones whose exported surface is
//     the contract other layers program against: internal/model,
//     internal/autonomic, internal/tune. Grouped const/var declarations
//     count as documented when the group has a doc comment.
//
//  2. Markdown anchors. Every intra-repo link in the top-level markdown
//     files — [text](FILE.md), [text](#heading), [text](FILE.md#heading) —
//     must resolve: the file must exist and the fragment must match a
//     heading's GitHub-style slug (lowercase, spaces to dashes,
//     punctuation dropped). Broken links are how a docs overhaul rots.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	flag.Parse()

	var problems []string
	for _, dir := range []string{"internal/model", "internal/autonomic", "internal/tune"} {
		problems = append(problems, lintPackage(dir)...)
	}
	problems = append(problems, lintMarkdown([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"})...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doclint: all exported identifiers documented, all markdown links resolve")
}

// lintPackage parses every non-test Go file in dir and reports exported
// identifiers that lack a doc comment.
func lintPackage(dir string) []string {
	fset := token.NewFileSet()
	pkgMap, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s %s is exported but undocumented", p.Filename, p.Line, what, name))
	}
	for _, pkg := range pkgMap {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							// Methods on unexported receivers are not part
							// of the exported surface.
							if !exportedRecv(d.Recv) {
								continue
							}
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a method's receiver type is exported.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// lintGenDecl checks type/const/var declarations. A grouped declaration's
// doc comment covers the group; an individual spec's doc or trailing line
// comment covers that spec.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			if s.Name.IsExported() {
				if st, ok := s.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, n := range f.Names {
							if n.IsExported() && f.Doc == nil && f.Comment == nil {
								report(n.Pos(), "field", s.Name.Name+"."+n.Name)
							}
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					what := "var"
					if d.Tok == token.CONST {
						what = "const"
					}
					report(n.Pos(), what, n.Name)
				}
			}
		}
	}
}

var (
	// [text](target) — shortest-match on both halves; images excluded by
	// the lookbehind-free trick of stripping a leading '!'.
	linkRE    = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	headingRE = regexp.MustCompile("^#{1,6}\\s+(.+?)\\s*$")
	slugDrop  = regexp.MustCompile(`[^a-z0-9 _-]`)
	codeFence = regexp.MustCompile("^(```|~~~)")
)

// lintMarkdown resolves every intra-repo link in the given files.
func lintMarkdown(files []string) []string {
	anchors := map[string]map[string]bool{}
	var out []string
	for _, f := range files {
		a, err := headingSlugs(f)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		anchors[f] = a
	}
	for _, f := range files {
		f = strings.TrimSpace(f)
		if anchors[f] == nil {
			continue
		}
		out = append(out, lintLinks(f, anchors)...)
	}
	return out
}

// headingSlugs returns the set of GitHub-style anchor slugs for a
// markdown file's headings, with the duplicate-heading "-n" suffix rule.
func headingSlugs(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	slugs := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if codeFence.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		s := slugify(m[1])
		if n := counts[s]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", s, n)] = true
		} else {
			slugs[s] = true
		}
		counts[s]++
	}
	return slugs, nil
}

// slugify lowercases, strips inline code/link markup and punctuation, and
// turns spaces into dashes — GitHub's heading-anchor algorithm, near
// enough for ASCII headings.
func slugify(h string) string {
	h = strings.ReplaceAll(h, "`", "")
	// Strip link syntax in headings: [text](url) -> text.
	h = linkRE.ReplaceAllStringFunc(h, func(s string) string {
		return s[1:strings.Index(s, "]")]
	})
	h = strings.ToLower(h)
	h = slugDrop.ReplaceAllString(h, "")
	h = strings.ReplaceAll(h, " ", "-")
	return h
}

// lintLinks checks every link in one file against the anchor sets.
func lintLinks(path string, anchors map[string]map[string]bool) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var out []string
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if codeFence.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; not ours to verify offline
			}
			file, frag := target, ""
			if j := strings.IndexByte(target, '#'); j >= 0 {
				file, frag = target[:j], target[j+1:]
			}
			if file == "" {
				file = path
			} else {
				file = filepath.Join(filepath.Dir(path), file)
				if _, err := os.Stat(file); err != nil {
					out = append(out, fmt.Sprintf("%s:%d: broken link %q: no such file", path, i+1, target))
					continue
				}
			}
			if frag == "" {
				continue
			}
			set := anchors[file]
			if set == nil {
				// Link into a file we were not asked to anchor-check:
				// existence of the file is enough.
				continue
			}
			if !set[frag] {
				out = append(out, fmt.Sprintf("%s:%d: broken anchor %q: no heading slugs to #%s", path, i+1, target, frag))
			}
		}
	}
	return out
}
