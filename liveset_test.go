// The live-set check (`make live`): every non-test top-level declaration
// outside bench/ must be reachable from a binary (a func main under cmd/ or
// examples/), from the frozen bench/ module (all of it, tests included, is a
// root), or be named in liveset_allow.txt as an oracle a test of live
// behaviour compares against. A declaration whose only traffic is its own
// unit test fails the check: delete both. So does an allow entry that names
// nothing or names something already reachable without it.
//
// Standard library only: the repo's packages are parsed and type-checked here
// (go/parser + go/types, everything else through the "source" importer), the
// reference graph is read off types.Info.Uses, and a method of a live type is
// live when it is called or when it satisfies an interface — named or
// anonymous — that appears anywhere in the checked code. Type-checking
// net/http and friends from source takes seconds that `go test ./...` should
// not pay, hence the env-var gate.
package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const (
	liveEnv       = "OCD_LIVESET"
	liveAllowFile = "liveset_allow.txt"
	liveAllowMax  = 45
)

// runtimeIfaces are the method sets the standard library looks for with a
// type assertion on an `any` or `error` (fmt, errors, encoding/json), which no
// signature the repo calls mentions.
const runtimeIfaces = `package p
type (
	A interface{ Error() string }
	B interface{ String() string }
	C interface{ Unwrap() error }
	D interface{ Is(error) bool }
	E interface{ MarshalJSON() ([]byte, error) }
	F interface{ UnmarshalJSON([]byte) error }
	G interface{ MarshalText() ([]byte, error) }
	H interface{ UnmarshalText([]byte) error }
)`

// livePkg is one directory of the repo, parsed and (lazily) type-checked.
type livePkg struct {
	path    string // import path: repro, repro/internal/core, repro/bench
	files   []*ast.File
	frozen  bool // bench/: every declaration is a root and none is reported
	hasMain bool // cmd/*, examples/*: func main is a root
	types   *types.Package
	info    *types.Info
	err     error
}

// liveDecl is one top-level declaration: a func, a method, or one spec of a
// type/var/const group.
type liveDecl struct {
	name  string // pkg.Symbol or pkg.Type.Method, pkg = last path element
	owner string // pkg.Type for a method, else ""
	pos   token.Position
	lines int
	refs  []types.Object // repo-declared objects this declaration mentions
}

// liveLoader type-checks the repo's packages on demand and in dependency
// order; it is the types.Importer each of them is checked with.
type liveLoader struct {
	fset *token.FileSet
	pkgs map[string]*livePkg
	std  types.Importer
}

func (l *liveLoader) Import(p string) (*types.Package, error) {
	lp, ok := l.pkgs[p]
	if !ok {
		return l.std.Import(p)
	}
	if lp.types == nil && lp.err == nil {
		lp.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: l}
		lp.types, lp.err = conf.Check(p, l.fset, lp.files, lp.info)
	}
	return lp.types, lp.err
}

// loadRepo parses every package directory under root. Test files are left out
// except in bench/, whose tests are part of the frozen module.
func loadRepo(root string) (*liveLoader, error) {
	l := &liveLoader{fset: token.NewFileSet(), pkgs: map[string]*livePkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := path.Dir(rel)
		frozen := dir == "bench"
		if !strings.HasSuffix(rel, ".go") || (strings.HasSuffix(rel, "_test.go") && !frozen) {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("repro", dir)
		lp := l.pkgs[ip]
		if lp == nil {
			lp = &livePkg{path: ip, frozen: frozen,
				hasMain: strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")}
			l.pkgs[ip] = lp
		}
		lp.files = append(lp.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range l.pkgs {
		if _, err := l.Import(p); err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p, err)
		}
	}
	return l, nil
}

// origin maps an instantiated generic function, method or field back to the
// object its declaration defines.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// liveGraph is the declaration graph of the non-frozen packages plus the
// interface universe methods are matched against.
type liveGraph struct {
	decls  map[types.Object]*liveDecl
	roots  []types.Object
	ifaces map[string]*types.Interface
}

func buildGraph(l *liveLoader) (*liveGraph, error) {
	g := &liveGraph{decls: map[types.Object]*liveDecl{}, ifaces: map[string]*types.Interface{}}
	repo := map[*types.Package]bool{}
	for _, lp := range l.pkgs {
		repo[lp.types] = true
	}
	// tracked reports whether o is something buildGraph makes a node for: a
	// package-level object or a method, declared in the repo.
	tracked := func(o types.Object) bool {
		if o == nil || !repo[o.Pkg()] {
			return false
		}
		if f, ok := o.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
			return true
		}
		return o.Parent() == o.Pkg().Scope()
	}
	for _, lp := range l.pkgs {
		for _, tv := range lp.info.Types {
			g.addIfaces(tv.Type, 0)
		}
		for _, o := range lp.info.Uses {
			g.addIfaces(o.Type(), 0)
		}
		short := path.Base(lp.path)
		// add makes the node for the object id defines. node is what its
		// lines are counted over (with doc), scan what its references are
		// read from; the second name of `var a, b = f()` counts no lines.
		add := func(id *ast.Ident, doc *ast.CommentGroup, node, scan ast.Node, countLines bool) {
			o := lp.info.Defs[id]
			if o == nil || id.Name == "_" {
				return
			}
			d := &liveDecl{name: short + "." + id.Name, pos: l.fset.Position(node.Pos())}
			if fd, ok := node.(*ast.FuncDecl); ok && fd.Recv != nil {
				recv := types.Unalias(o.Type().(*types.Signature).Recv().Type())
				if p, ok := recv.(*types.Pointer); ok {
					recv = types.Unalias(p.Elem())
				}
				d.owner = short + "." + recv.(*types.Named).Obj().Name()
				d.name = d.owner + "." + id.Name
			}
			if countLines {
				start := node.Pos()
				if doc != nil {
					start = doc.Pos()
				}
				d.lines = l.fset.Position(node.End()).Line - l.fset.Position(start).Line + 1
			}
			ast.Inspect(scan, func(n ast.Node) bool {
				if use, ok := n.(*ast.Ident); ok {
					if u := origin(lp.info.Uses[use]); tracked(u) {
						d.refs = append(d.refs, u)
					}
				}
				return true
			})
			g.decls[o] = d
			if lp.frozen || id.Name == "init" || (lp.hasMain && id.Name == "main") {
				g.roots = append(g.roots, o)
			}
		}
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					add(decl.Name, decl.Doc, decl, decl, true)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						var names []*ast.Ident
						var doc *ast.CommentGroup
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names, doc = []*ast.Ident{spec.Name}, spec.Doc
						case *ast.ValueSpec:
							names, doc = spec.Names, spec.Doc
						}
						var node ast.Node = spec
						if !decl.Lparen.IsValid() { // ungrouped: the doc sits on the GenDecl
							node, doc = decl, decl.Doc
						}
						for i, id := range names {
							add(id, doc, node, spec, i == 0)
						}
					}
				}
			}
		}
	}
	f, err := parser.ParseFile(l.fset, "runtime_ifaces.go", runtimeIfaces, 0)
	if err != nil {
		return nil, err
	}
	conf := types.Config{}
	p, err := conf.Check("p", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range p.Scope().Names() {
		g.addIfaces(p.Scope().Lookup(name).Type(), 0)
	}
	return g, nil
}

// addIfaces records every interface with methods that t is, or mentions in a
// signature or an element type: the types a concrete value can be converted
// to by passing, assigning or storing it.
func (g *liveGraph) addIfaces(t types.Type, depth int) {
	if t == nil || depth > 3 {
		return
	}
	switch u := t.(type) {
	case *types.Named:
		if it, ok := u.Underlying().(*types.Interface); ok {
			g.addIfaces(it, depth)
		}
	case *types.Interface:
		if u.NumMethods() > 0 {
			g.ifaces[types.TypeString(u, nil)] = u
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				g.addIfaces(tup.At(i).Type(), depth+1)
			}
		}
	case *types.Pointer:
		g.addIfaces(u.Elem(), depth+1)
	case *types.Slice:
		g.addIfaces(u.Elem(), depth+1)
	case *types.Array:
		g.addIfaces(u.Elem(), depth+1)
	case *types.Chan:
		g.addIfaces(u.Elem(), depth+1)
	case *types.Map:
		g.addIfaces(u.Key(), depth+1)
		g.addIfaces(u.Elem(), depth+1)
	}
}

// reach returns the declarations reachable from the roots plus extra. A type
// that becomes live brings in the methods by which it (or a pointer to it)
// satisfies any interface of the universe.
func (g *liveGraph) reach(extra []types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(o types.Object) {
		if g.decls[o] != nil && !live[o] {
			live[o] = true
			work = append(work, o)
		}
	}
	for _, o := range g.roots {
		mark(o)
	}
	for _, o := range extra {
		mark(o)
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range g.decls[o].refs {
			mark(r)
		}
		tn, ok := o.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for _, it := range g.ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if impl, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); impl != nil {
					mark(origin(impl))
				}
			}
		}
	}
	return live
}

// readAllow parses liveset_allow.txt: `pkg.Symbol  # reason` per line.
func readAllow(file string) ([]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		name, reason, ok := strings.Cut(line, "#")
		if name = strings.TrimSpace(name); !ok || name == "" || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want `pkg.Symbol  # reason`", file, n)
		}
		names = append(names, name)
	}
	return names, sc.Err()
}

func TestLiveSet(t *testing.T) {
	if os.Getenv(liveEnv) == "" {
		t.Skipf("type-checks the standard library from source; run `make live`, which sets %s=1", liveEnv)
	}
	l, err := loadRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(l)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(liveAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) > liveAllowMax {
		t.Errorf("%s has %d entries, the cap is %d: delete dead code rather than list it", liveAllowFile, len(allow), liveAllowMax)
	}

	// covered[i] = the declarations entry i keeps: the symbol itself and, for
	// a type, its methods.
	covered := make([][]types.Object, len(allow))
	for o, d := range g.decls {
		for i, name := range allow {
			if d.name == name || d.owner == name {
				covered[i] = append(covered[i], o)
			}
		}
	}
	for i, name := range allow {
		var others []types.Object
		for j, c := range covered {
			if j != i {
				others = append(others, c...)
			}
		}
		without := g.reach(others)
		stale := true
		for _, o := range covered[i] {
			stale = stale && without[o]
		}
		switch {
		case len(covered[i]) == 0:
			t.Errorf("%s: stale entry %s: no such declaration", liveAllowFile, name)
		case stale:
			t.Errorf("%s: stale entry %s: reachable without it", liveAllowFile, name)
		}
	}

	report := func(live map[types.Object]bool) (dead []*liveDecl, lines int) {
		for o, d := range g.decls {
			if !live[o] {
				dead = append(dead, d)
				lines += d.lines
			}
		}
		sort.Slice(dead, func(i, j int) bool {
			a, b := dead[i].pos, dead[j].pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Line < b.Line
		})
		return dead, lines
	}
	raw, rawLines := report(g.reach(nil))
	t.Logf("%d declarations, %d lines reachable from no binary and not from bench/ (before the %d allow entries)", len(raw), rawLines, len(allow))

	var all []types.Object
	for _, c := range covered {
		all = append(all, c...)
	}
	dead, lines := report(g.reach(all))
	for _, d := range dead {
		t.Errorf("%s:%d: %s (%d lines)", d.pos.Filename, d.pos.Line, d.name, d.lines)
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations, %d lines are reachable from no binary and not from bench/: delete each with its tests, or name it in %s with the test it is the oracle of",
			len(dead), lines, liveAllowFile)
	}
}
