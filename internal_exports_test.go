package steghide_test

import (
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
	"wire.NewFaultListener":                     "instrument: FaultListener schedules of the chaos matrices",

	// Paper mechanisms a roadmap item wires into the live path.
	"oblivious.FS.DummyRead":       "paper mechanism: Fig. 8(a) dummy read, ROADMAP item 16",
	"oblivious.Store.DummyRead":    "paper mechanism: Fig. 8(a) dummy read, ROADMAP item 16",
	"steghide.Daemon.WithAdaptive": "paper mechanism: adaptive cover rate, ROADMAP item 14",

	// Operator API a facade doc names.
	"steghide.VolatileAgent.SetQuota": "operator API: the WithLoginQuota doc names it for per-login overrides",
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
// A name match alone does not count. The scan type-checks the tree with
// go/types and the standard library's source importer: every package
// under the first build, and under each later build only the packages
// whose build-constrained file set differs from the first build's.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	dirs := lintPackageDirs(t)
	parsed := map[string]*ast.File{}
	parse := func(path string) *ast.File {
		if f, ok := parsed[path]; ok {
			return f
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed[path] = f
		return f
	}
	std := importer.ForCompiler(fset, "source", nil)

	decls := map[string]*ast.FuncDecl{} // key -> declaration
	used := map[string]bool{}
	var base map[string][]string // the first build's file names per package
	for i, b := range lintBuilds {
		ctxt := build.Default
		ctxt.GOARCH, ctxt.BuildTags = b.goarch, b.tags
		files := map[string][]*ast.File{} // import path -> files
		names := map[string][]string{}
		for path, dir := range dirs {
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				if ok, err := ctxt.MatchFile(dir, name); err != nil {
					t.Fatal(err)
				} else if ok {
					files[path] = append(files[path], parse(filepath.Join(dir, name)))
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
				t.Fatalf("%s/%s: %v", b.goarch, strings.Join(b.tags, ","), err)
			}
		}
		if err := s.collect(decls, used); err != nil {
			t.Fatal(err)
		}
	}

	var missing []string
	for key, d := range decls {
		reason, allowed := internalWithoutCallers[key]
		switch {
		case used[key] && allowed:
			t.Errorf("%s has a caller now: drop it from internalWithoutCallers (%s)", key, reason)
		case !used[key] && !allowed:
			missing = append(missing, fset.Position(d.Pos()).String()+": "+key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no non-test caller: delete it, unexport it, or say on internalWithoutCallers why it stays", m)
	}
	for key := range internalWithoutCallers {
		if decls[key] == nil {
			t.Errorf("internalWithoutCallers names %s, which internal/ does not declare", key)
		}
	}
	if len(decls) < 100 {
		t.Fatalf("found only %d exported functions under internal/: the scan is not seeing the tree", len(decls))
	}
}

// lintPackageDirs maps the import path of every package directory in
// the module and in bench/ to its directory.
func lintPackageDirs(t *testing.T) map[string]string {
	t.Helper()
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
	if err != nil {
		t.Fatal(err)
	}
	return dirs
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
func (s *lintScan) collect(decls map[string]*ast.FuncDecl, used map[string]bool) error {
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
				keys[fn], own[fn], decls[key] = key, fd, fd
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
