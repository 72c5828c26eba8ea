package steghide_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// internalWithoutCallers lists the exported functions and methods
// under internal/ that no non-test code calls, each with the reason it
// stays. Keys are "pkg.Func" or "pkg.Type.Method".
var internalWithoutCallers = map[string]string{
	// Instruments: detectors, fault injectors and read-outs whose
	// purpose is testing the live code.
	"attack.CallShape":                          "instrument: call-shape detector of the Definition-1 call-shape tests",
	"attack.CompareContent":                     "instrument: content adversary of the filler-indistinguishability tests",
	"attack.PublicStreamAdversary.Matches":      "instrument: public-stream adversary of the Definition-1 oracles",
	"attack.UpdateAnalyzer.HotSetStability":     "instrument: update-stream detector of the security tests",
	"attack.UpdateAnalyzer.Intervals":           "instrument: update-stream detector of the security tests",
	"attack.UpdateAnalyzer.SnapshotHomogeneity": "instrument: update-stream detector of the security tests",
	"attack.UpdateAnalyzer.SpatialUniformity":   "instrument: update-stream detector of the security tests",
	"blockdev.Counter.Reads":                    "instrument: Counter read-out of the batch and tracer tests",
	"blockdev.Counter.Writes":                   "instrument: Counter read-out of the batch and tracer tests",
	"blockdev.FaultDevice.CutBlock":             "instrument: FaultDevice power cut of the crash matrices",
	"blockdev.FaultDevice.FailReadsAfter":       "instrument: FaultDevice read fault of the fault tests",
	"blockdev.FaultDevice.FailWritesAfter":      "instrument: FaultDevice write fault of the fault tests",
	"blockdev.FaultDevice.PowerCutTorn":         "instrument: FaultDevice torn power cut of the crash matrices",
	"mempool.SetPoison":                         "instrument: poisons recycled buffers in the pool tests",
	"obs.Registry.Snapshot":                     "instrument: registry read-out of the metrics and write-budget tests",
	"wire.NewFaultListener":                     "instrument: FaultListener schedules of the chaos matrices",

	// Paper mechanisms a roadmap item wires into the live path.
	"oblivious.FS.DummyRead":    "paper mechanism: Fig. 8(a) dummy read, ROADMAP item 16",
	"oblivious.Store.DummyRead": "paper mechanism: Fig. 8(a) dummy read, ROADMAP item 16",
}

// lintBuilds are the builds CI compiles: a reference under any of them
// counts.
var lintBuilds = []struct {
	goarch string
	tags   []string
}{
	{"amd64", nil},
	{"amd64", []string{"purego"}},
	{"arm64", nil},
	{"amd64", []string{"race"}},
}

// TestInternalExportsHaveCallers holds internal/ to the rule the facade
// keeps: every exported function or method declared in a non-test file
// under internal/ has a non-test reference outside its own declaration,
// somewhere in the module or in bench/, under one of the builds CI
// compiles — or it sits on internalWithoutCallers. A method also counts
// as called when its type, or a type embedding it, implements an
// interface the program uses that declares it: a module interface
// method the code calls (the blockdev.Device and sched.Space methods),
// a standard-library interface the code names (sort, heap,
// net.Listener, error), fmt.Stringer, or the Unwrap that errors calls.
// A name match alone does not count. The scan reads lintTree.
func TestInternalExportsHaveCallers(t *testing.T) {
	scans := lintTree(t)
	decls := map[string]token.Pos{} // key -> declaration
	used := map[string]bool{}
	for _, s := range scans {
		if err := s.collect(decls, used); err != nil {
			t.Fatal(err)
		}
	}
	checkLint(t, scans[0].fset, decls, used, internalWithoutCallers, "internalWithoutCallers",
		"has a caller now", "has no non-test caller: delete it, unexport it")
}

// internalFieldsNeverSet lists the exported fields of exported structs
// under internal/ that no non-test code sets, each with the reason it
// stays. Keys are "pkg.Type.Field".
var internalFieldsNeverSet = map[string]string{
	"attack.PublicStreamAdversary.BlockSize": "instrument: the public-stream adversary's block size, set by the public-stream tests",
	"attack.PublicStreamAdversary.Horizon":   "instrument: the public-stream adversary's IV and filler horizon, set by the public-stream tests",
	"oblivious.Stats.ReTouches":              "benchmark read-out: always zero since the store has one schedule; bench/ reports it as oblivious.retouches until ROADMAP item 19 drops that figure",
	"wire.FaultListener.Plan":                "instrument: the chaos and retry tests' own fault schedules; nil runs the default one",
	"wire.RetryPolicy.JitterSeed":            "test-determinism seam: tests fix the jitter stream so redial runs replay bit-identically; the facade alias steghide.RetryPolicy exposes it",
}

// TestInternalFieldsAreSet holds the exported fields of internal/ to
// the rule TestInternalExportsHaveCallers holds its functions to: every
// exported field of an exported struct type declared in a non-test file
// under internal/ is set somewhere in non-test code of the module or of
// bench/, under one of the builds CI compiles — or it sits on
// internalFieldsNeverSet. A field is set when it is the target of an
// assignment, an increment or decrement, a range clause's assignment
// or a copy, when its address is taken, or when a composite literal
// names it, by key or by position; an index or slice of the field, as
// in f.F[i] = v, counts as setting it. A field only read is a knob
// nothing turns: delete it, or make the one value in use a constant.
func TestInternalFieldsAreSet(t *testing.T) {
	scans := lintTree(t)
	decls := map[string]token.Pos{} // key -> declaration
	set := map[string]bool{}
	for _, s := range scans {
		s.collectFields(decls, set)
	}
	checkLint(t, scans[0].fset, decls, set, internalFieldsNeverSet, "internalFieldsNeverSet",
		"is set now", "is never set outside tests: delete it")
}

// checkLint fails an export lint on every declared key that is neither
// used nor on the allow-list allow, named allowName, and on every entry
// of the list that is used now or names nothing declared. usedMsg and
// unusedMsg complete the two messages about a key.
func checkLint(t *testing.T, fset *token.FileSet, decls map[string]token.Pos, used map[string]bool,
	allow map[string]string, allowName, usedMsg, unusedMsg string) {
	t.Helper()
	var missing []string
	for key, pos := range decls {
		reason, allowed := allow[key]
		switch {
		case used[key] && allowed:
			t.Errorf("%s %s: drop it from %s (%s)", key, usedMsg, allowName, reason)
		case !used[key] && !allowed:
			missing = append(missing, fset.Position(pos).String()+": "+key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s %s, or say on %s why it stays", m, unusedMsg, allowName)
	}
	for key := range allow {
		if _, ok := decls[key]; !ok {
			t.Errorf("%s names %s, which internal/ does not declare", allowName, key)
		}
	}
	if len(decls) < 100 {
		t.Fatalf("found only %d declarations under internal/: the scan is not seeing the tree", len(decls))
	}
}

// lintTreeOnce type-checks the tree once per test binary for the
// export lints.
var lintTreeOnce = sync.OnceValues(checkLintTree)

// lintTree returns the type-checked tree: one lintScan per build of
// lintBuilds, all sharing one file set.
func lintTree(t *testing.T) []*lintScan {
	t.Helper()
	scans, err := lintTreeOnce()
	if err != nil {
		t.Fatal(err)
	}
	return scans
}

// checkLintTree type-checks the tree with go/types and the standard
// library's source importer: every package under the first build, and
// under each later build only the packages whose build-constrained file
// set differs from the first build's.
func checkLintTree() ([]*lintScan, error) {
	fset := token.NewFileSet()
	dirs, err := lintPackageDirs()
	if err != nil {
		return nil, err
	}
	parsed := map[string]*ast.File{}
	parse := func(path string) (*ast.File, error) {
		if f, ok := parsed[path]; ok {
			return f, nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed[path] = f
		return f, nil
	}
	std := importer.ForCompiler(fset, "source", nil)

	var scans []*lintScan
	var base map[string][]string // the first build's file names per package
	for i, b := range lintBuilds {
		ctxt := build.Default
		ctxt.GOARCH, ctxt.BuildTags = b.goarch, b.tags
		files := map[string][]*ast.File{} // import path -> files
		names := map[string][]string{}
		for path, dir := range dirs {
			ents, err := os.ReadDir(dir)
			if err != nil {
				return nil, err
			}
			for _, e := range ents {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				if ok, err := ctxt.MatchFile(dir, name); err != nil {
					return nil, err
				} else if ok {
					f, err := parse(filepath.Join(dir, name))
					if err != nil {
						return nil, err
					}
					files[path] = append(files[path], f)
					names[path] = append(names[path], name)
				}
			}
		}
		if i == 0 {
			base = names
		}
		s := &lintScan{fset: fset, files: files, std: std, pkgs: map[string]*types.Package{},
			info: map[string]*types.Info{}}
		for path := range files {
			// A later build re-checks only the packages whose file set
			// differs from the first build's (and, through Import, what
			// they import): every other package is the same source and
			// references the same names.
			if i > 0 && slices.Equal(names[path], base[path]) {
				continue
			}
			if _, err := s.Import(path); err != nil {
				return nil, fmt.Errorf("%s/%s: %v", b.goarch, strings.Join(b.tags, ","), err)
			}
		}
		scans = append(scans, s)
	}
	return scans, nil
}

// lintPackageDirs maps the import path of every package directory in
// the module and in bench/ to its directory.
func lintPackageDirs() (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
		if len(matches) > 0 {
			dirs[filepath.ToSlash(filepath.Join("steghide", path))] = path
		}
		return nil
	})
	return dirs, err
}

// lintScan type-checks one build of the tree: module packages from the
// parsed files, the standard library through std.
type lintScan struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	pkgs  map[string]*types.Package
	info  map[string]*types.Info
}

func (s *lintScan) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	files, ok := s.files[path]
	if !ok {
		return s.std.Import(path)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path], s.info[path] = p, info
	return p, nil
}

// collect adds the exported internal/ functions of the packages this
// build checked to decls, and the keys of the ones they reference to
// used.
func (s *lintScan) collect(decls map[string]token.Pos, used map[string]bool) error {
	keys := map[*types.Func]string{}
	own := map[*types.Func]*ast.FuncDecl{}
	for path := range s.info {
		if !strings.HasPrefix(path, "steghide/internal/") {
			continue
		}
		for _, f := range s.files[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := s.info[path].Defs[fd.Name].(*types.Func)
				key := funcKey(fn)
				keys[fn], own[fn], decls[key] = key, fd, fd.Pos()
			}
		}
	}

	// Direct references, and the interface methods the code calls.
	called := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	for _, info := range s.info {
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if key, ok := keys[fn]; ok {
				if d := own[fn]; id.Pos() < d.Pos() || id.Pos() >= d.End() {
					used[key] = true
				}
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called[fn] = true
			}
		}
		for _, tv := range info.Types {
			interfacesIn(tv.Type, ifaces, map[types.Type]bool{})
		}
	}
	// fmt calls String and errors calls Unwrap on values the program
	// passes as any or error.
	fmtPkg, err := s.std.Import("fmt")
	if err != nil {
		return err
	}
	ifaces[fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)] = true
	errType := types.Universe.Lookup("error").Type()
	for _, res := range []types.Type{errType, types.NewSlice(errType)} {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", res)), false)
		ifaces[types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()] = true
	}

	// A method counts as called when it implements, for a module type
	// itself or for one that embeds it, an interface method that is
	// called or that the standard library may call.
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, "steghide/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				for iface := range ifaces {
					if !types.Implements(t, iface) {
						continue
					}
					for i := 0; i < iface.NumMethods(); i++ {
						im := iface.Method(i)
						if !called[im] && im.Pkg() != nil && strings.HasPrefix(im.Pkg().Path(), "steghide") {
							continue
						}
						obj, _, _ := types.LookupFieldOrMethod(t, false, im.Pkg(), im.Name())
						if fn, ok := obj.(*types.Func); ok {
							if key, ok := keys[fn.Origin()]; ok {
								used[key] = true
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// collectFields adds the exported fields of the exported internal/
// struct types of the packages this build checked to decls, and the
// keys of the ones this build's code sets to set.
func (s *lintScan) collectFields(decls map[string]token.Pos, set map[string]bool) {
	keys := map[*types.Var]string{}
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, "steghide/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					key := p.Name() + "." + name + "." + f.Name()
					keys[f], decls[key] = key, f.Pos()
				}
			}
		}
	}
	mark := func(v types.Object) {
		if f, ok := v.(*types.Var); ok && f.IsField() {
			if key, ok := keys[f.Origin()]; ok {
				set[key] = true
			}
		}
	}
	for path, info := range s.info {
		// target marks the field an lvalue expression writes, if any.
		target := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.IndexExpr:
					e = x.X
					continue
				case *ast.SliceExpr:
					e = x.X
					continue
				case *ast.SelectorExpr:
					mark(info.Uses[x.Sel])
				}
				return
			}
		}
		for _, f := range s.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						target(l)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						target(n.Key)
						target(n.Value)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
						if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
							target(n.Args[0])
						}
					}
				case *ast.CompositeLit:
					t := info.Types[n].Type
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(info.Uses[id])
							}
						} else {
							mark(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}
}

// funcKey names fn as "pkg.Func" or "pkg.Type.Method".
func funcKey(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

// interfacesIn adds every method-set interface reachable from t through
// signatures, composite types and module types' structure to out.
// Standard-library named types are not entered: only the interfaces the
// program names count.
func interfacesIn(t types.Type, out map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch tt := t.(type) {
	case *types.Named:
		if it, ok := tt.Underlying().(*types.Interface); ok {
			if it.IsMethodSet() && it.NumMethods() > 0 && tt.TypeParams().Len() == tt.TypeArgs().Len() {
				out[it] = true
			}
			return
		}
		for i := 0; i < tt.TypeArgs().Len(); i++ {
			interfacesIn(tt.TypeArgs().At(i), out, seen)
		}
		if tt.Obj().Pkg() != nil && strings.HasPrefix(tt.Obj().Pkg().Path(), "steghide") {
			interfacesIn(tt.Underlying(), out, seen)
		}
	case *types.Interface:
		if tt.IsMethodSet() && tt.NumMethods() > 0 {
			out[tt] = true
		}
	case *types.Pointer:
		interfacesIn(tt.Elem(), out, seen)
	case *types.Slice:
		interfacesIn(tt.Elem(), out, seen)
	case *types.Array:
		interfacesIn(tt.Elem(), out, seen)
	case *types.Chan:
		interfacesIn(tt.Elem(), out, seen)
	case *types.Map:
		interfacesIn(tt.Key(), out, seen)
		interfacesIn(tt.Elem(), out, seen)
	case *types.Tuple:
		for i := 0; i < tt.Len(); i++ {
			interfacesIn(tt.At(i).Type(), out, seen)
		}
	case *types.Signature:
		interfacesIn(tt.Params(), out, seen)
		interfacesIn(tt.Results(), out, seen)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			interfacesIn(tt.Field(i).Type(), out, seen)
		}
	}
}
