// Package deadcheck keeps dead code deleted.  It type-checks every
// non-test file of the module and fails on any package-level func,
// method, type, var or const under internal/ or cmd/ that no non-test
// file references, and on any exported field of a struct type named
// …Options or …Config there that no non-test file sets, unless
// allow.txt lists it with a reason.
//
// The package has test files only, so the gate adds nothing to what the
// module builds.  Run it with `make deadcheck`.
package deadcheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The standard library is type-checked from source once per test
// binary and shared by every check; cgo is off so that net and os/user
// load their pure-Go files instead of invoking a C toolchain.
var (
	fset = token.NewFileSet()
	std  types.Importer
)

func init() {
	build.Default.CgoEnabled = false
	std = importer.ForCompiler(fset, "source", nil)
}

// A finding is one declaration or allowlist entry the gate rejects.
type finding struct {
	key string // "internal/wal.Log.WrapFile": package directory, then name
	why string
	at  string // file:line, or "" for an allowlist entry with no declaration
}

func (f finding) String() string {
	if f.at == "" {
		return f.key + ": " + f.why
	}
	return f.at + ": " + f.key + ": " + f.why
}

const (
	whyUnused  = "no non-test file references it"
	whyUnset   = "no non-test file sets it"
	whyMissing = "allow.txt names a declaration that does not exist"
	whyUsed    = "allow.txt names a declaration that a non-test file references"
	whyReason  = "allow.txt entry has no reason"
)

type pkg struct {
	rel   string // directory relative to the module root, slash-separated
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

// module loads the module's packages on demand, as their importers
// reach them, and hands every other import path to std.
type module struct {
	path  string
	pkgs  map[string]*pkg // by import path
	order []*pkg          // in type-check order
	std   map[string]*types.Package
}

func (m *module) Import(p string) (*types.Package, error) {
	if q, ok := m.pkgs[p]; ok {
		return m.load(p, q)
	}
	if p == m.path || strings.HasPrefix(p, m.path+"/") {
		return nil, fmt.Errorf("package %s has no non-test Go files", p)
	}
	t, err := std.Import(p)
	if err == nil {
		m.std[p] = t
	}
	return t, err
}

func (m *module) load(p string, q *pkg) (*types.Package, error) {
	if q.tpkg != nil {
		return q.tpkg, nil
	}
	q.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	t, err := conf.Check(p, fset, q.files, q.info)
	if err != nil {
		return nil, err
	}
	q.tpkg = t
	m.order = append(m.order, q)
	return t, nil
}

// parseModule parses the non-test files of every package under root
// (testdata, hidden and nested-module directories excluded) and
// type-checks them all.
func parseModule(root string) (*module, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{pkgs: map[string]*pkg{}, std: map[string]*types.Package{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	if m.path == "" {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		q := &pkg{rel: filepath.ToSlash(rel)}
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			q.files = append(q.files, f)
		}
		if len(q.files) > 0 {
			m.pkgs[path.Join(m.path, q.rel)] = q
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.pkgs))
	for p := range m.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.load(p, m.pkgs[p]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// interfaces returns the methods of every named interface type the
// module declares or finds in a standard package it imports, plus
// error's.
func (m *module) interfaces() []*types.Func {
	ms := methodsOf(types.Universe.Lookup("error").Type())
	scopes := make([]*types.Scope, 0, len(m.order)+len(m.std))
	for _, q := range m.order {
		scopes = append(scopes, q.tpkg.Scope())
	}
	for _, t := range m.std {
		scopes = append(scopes, t.Scope())
	}
	for _, s := range scopes {
		for _, n := range s.Names() {
			if tn, ok := s.Lookup(n).(*types.TypeName); ok {
				ms = append(ms, methodsOf(tn.Type())...)
			}
		}
	}
	return ms
}

func methodsOf(t types.Type) []*types.Func {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	ms := make([]*types.Func, it.NumMethods())
	for i := range ms {
		ms[i] = it.Method(i)
	}
	return ms
}

func satisfies(fn *types.Func, iface []*types.Func) bool {
	for _, im := range iface {
		if im.Name() == fn.Name() && types.Identical(im.Type(), fn.Type()) {
			return true
		}
	}
	return false
}

type span struct{ from, to token.Pos }

// check runs the gate over the module at root with the given allowlist
// and returns what it rejects, sorted.
func check(root string, allow []byte) ([]finding, error) {
	m, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	at := func(pos token.Pos) string {
		p := fset.Position(pos)
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
	}

	// The candidates, and for each the spans of its own declaration (and,
	// for a type, its methods' receivers): a use inside them is no use.
	keys := map[types.Object]string{}
	self := map[types.Object][]span{}
	for _, q := range m.order {
		if !strings.HasPrefix(q.rel, "internal/") && !strings.HasPrefix(q.rel, "cmd/") {
			continue
		}
		s := q.tpkg.Scope()
		for _, n := range s.Names() {
			obj := s.Lookup(n)
			if n == "_" || (n == "main" && q.tpkg.Name() == "main") {
				continue
			}
			keys[obj] = q.rel + "." + n
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if nt, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < nt.NumMethods(); i++ {
						keys[nt.Method(i)] = q.rel + "." + n + "." + nt.Method(i).Name()
					}
				}
			}
		}
		for _, f := range q.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := q.info.Defs[d.Name]
					self[obj] = append(self[obj], span{d.Pos(), d.End()})
					if d.Recv != nil {
						if tn := recvType(q.info, d.Recv.List[0].Type); tn != nil {
							self[tn] = append(self[tn], span{d.Recv.Pos(), d.Recv.End()})
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := q.info.Defs[s.Name]
							self[obj] = append(self[obj], span{s.Pos(), s.End()})
						case *ast.ValueSpec:
							for _, n := range s.Names {
								obj := q.info.Defs[n]
								self[obj] = append(self[obj], span{s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, q := range m.order {
		for id, obj := range q.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if _, ok := keys[obj]; !ok || used[obj] {
				continue
			}
			inside := false
			for _, s := range self[obj] {
				inside = inside || (s.from <= id.Pos() && id.Pos() < s.to)
			}
			used[obj] = !inside
		}
	}
	// Option fields count as used only where a non-test file sets them:
	// a composite-literal key, an assignment or increment, or an address
	// taken (a flag bound to it).
	for _, q := range m.order {
		if !strings.HasPrefix(q.rel, "internal/") && !strings.HasPrefix(q.rel, "cmd/") {
			continue
		}
		s := q.tpkg.Scope()
		for _, n := range s.Names() {
			tn, ok := s.Lookup(n).(*types.TypeName)
			if !ok || !(strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					keys[f] = q.rel + "." + n + "." + f.Name()
					used[f] = false
				}
			}
		}
	}
	for _, q := range m.order {
		set := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			if id, ok := e.(*ast.Ident); ok {
				if v, ok := q.info.Uses[id].(*types.Var); ok && v.IsField() {
					used[v.Origin()] = true
				}
			}
		}
		for _, f := range q.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					set(n.Key)
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						set(l)
					}
				case *ast.IncDecStmt:
					set(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						set(n.X)
					}
				}
				return true
			})
		}
	}

	iface := m.interfaces()
	for obj := range keys {
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && satisfies(fn, iface) {
			used[obj] = true
		}
	}

	var out []finding
	reasons := map[string]string{}
	for _, line := range strings.Split(string(allow), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if reasons[key] = strings.TrimSpace(reason); reasons[key] == "" {
			out = append(out, finding{key: key, why: whyReason})
		}
	}
	byKey := map[string]types.Object{}
	for obj, key := range keys {
		byKey[key] = obj
		if _, listed := reasons[key]; !used[obj] && !listed {
			why := whyUnused
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				why = whyUnset
			}
			out = append(out, finding{key: key, why: why, at: at(obj.Pos())})
		}
	}
	for key := range reasons {
		if obj, ok := byKey[key]; !ok {
			out = append(out, finding{key: key, why: whyMissing})
		} else if used[obj] {
			out = append(out, finding{key: key, why: whyUsed, at: at(obj.Pos())})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].why < out[j].why
	})
	return out, nil
}

// recvType is the type a method's receiver expression names.
func recvType(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// TestModule is the gate itself, over this module.
func TestModule(t *testing.T) {
	allow, err := os.ReadFile("allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	found, err := check(filepath.Join("..", ".."), allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}
