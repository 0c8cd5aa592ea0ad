package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The five kinds of code the tree keeps although no program reaches it.
// Every reason in censusKept starts with one of them.
const (
	keptOracle  = "test oracle: "
	keptFault   = "fault harness: "
	keptBench   = "benchmark: "
	keptFixture = "settled fixture: "
	keptVocab   = "test vocabulary: "
)

// censusKept lists, one line each, the definitions TestEveryDefinitionReachable
// lets stand although no program reaches them, and why. A definition is named
// by its package path under the module, then its receiver type for a method.
// What a kept definition reaches is kept with it and is not listed.
var censusKept = map[string]string{
	"internal/nn.GradCheck":                keptOracle + "central-difference gradients every layer's Backward is checked against (nn, models, core)",
	"internal/obs.Registry.Lint":           keptOracle + "the Prometheus text-format linter, over a registry's exposition, that obs and server tests run",
	"internal/dataprep.ExpandWeighted":     keptOracle + "the staged correlation-weighted expansion PrepareInput's one pass is held to",
	"internal/fault.NewInjector":           keptFault + "builds the injector chaos tests arm",
	"internal/fault.Activate":              keptFault + "arms an injector for the process's probes",
	"internal/fault.Deactivate":            keptFault + "disarms it at the end of a chaos test",
	"internal/fault.Active":                keptFault + "reports the armed injector",
	"internal/fault.Injector.Fired":        keptFault + "how often a probe fired, which chaos tests assert",
	"internal/fault.Injector.Probes":       keptFault + "how often a probe was reached",
	"internal/fault.Injector.Scopes":       keptFault + "the scopes an injector saw",
	"internal/tensor.Tensor.MatMul":        keptBench + "BenchmarkMatMul*, gated in CI by cmd/benchjson",
	"internal/tensor.Tensor.MatMulT":       keptBench + "BenchmarkMatMulT, recorded in BENCH_compute.json",
	"internal/tensor.Tensor.TMatMul":       keptBench + "BenchmarkTMatMul, recorded in BENCH_compute.json",
	"internal/experiments.TableIIModels":   keptBench + "the models BenchmarkTableII* runs a cell for",
	"internal/experiments.RunTableIICell":  keptBench + "one Table II cell, the body of BenchmarkTableII*",
	"internal/nn.Tanh":                     keptFixture + "the activation of the nn, opt and train test models",
	"internal/nn.NewDropout":               keptFixture + "plain dropout of the nn and train determinism tests",
	"internal/nn.MAELoss":                  keptFixture + "eq. 10 as a loss, gradient-checked in nn",
	"internal/opt.NewSGD":                  keptFixture + "the second optimizer of the opt and train checkpoint tests",
	"internal/tensor.Full":                 keptVocab + "constant tensors in nn and train tests",
	"internal/tensor.Tensor.Add":           keptVocab + "elementwise sum in nn and tensor tests",
	"internal/tensor.Tensor.Sub":           keptVocab + "elementwise difference in nn property tests",
	"internal/tensor.Tensor.Mul":           keptVocab + "Hadamard product of tensor's element-op tests",
	"internal/tensor.Tensor.Scale":         keptVocab + "scaling in nn property tests",
	"internal/tensor.Tensor.At":            keptVocab + "indexed reads in nn, train and dataprep tests",
	"internal/tensor.Tensor.Equal":         keptVocab + "tolerance comparison in nn, core, shard, server and registry tests",
	"internal/tensor.Tensor.Mean":          keptVocab + "output means in nn and models tests",
	"internal/tensor.Tensor.Max":           keptVocab + "reductions of tensor's tests",
	"internal/tensor.Tensor.Min":           keptVocab + "reductions of tensor's tests",
	"internal/stats.Variance":              keptVocab + "spread of forecasts in core tests",
	"internal/models.NewPlainTCN":          keptVocab + "the attention-free TCN core's oracle tests compare against",
	"internal/core.Model.AttentionWeights": keptVocab + "the attention weights core tests check sum to one",
	"internal/quality.PresetDefault":       keptVocab + "names the zero Preset every quality Config{} selects",
	"internal/obs/sketch.Fleet.Footprint":  keptVocab + "the sketch memory sketch and server fleet tests bound",
	"internal/obs.Histogram.Count":         keptVocab + "observation counts in obs and server middleware tests",
	"internal/obs.NewLogger":               keptVocab + "a logger into a buffer for obs and train hook tests",
	"internal/obs/trace.Span.Duration":     keptVocab + "a finished span's length in trace tests",
	"internal/obs/trace.Tracer.Total":      keptVocab + "completed root traces in trace tests",
	"internal/registry.Handle.Version":     keptVocab + "the version a cache handle serves in registry tests",
	"internal/server.Server.Adaptation":    keptVocab + "the adapt supervisor server tests drive",
	"internal/server.Server.Registry":      keptVocab + "the metrics registry server fleet tests scrape",
}

// TestEveryDefinitionReachable is the tree's reachability census: every
// package-level function, method, type, variable and constant of both modules
// must be reached from a program — a main under cmd/, examples/ or
// benchmark/, an init, or a package-level variable's initializer — or be
// listed in censusKept with its reason. A reached type keeps every method
// whose name some interface declares, since a call through the interface
// names only the interface's method. go/build picks each package's files
// for this platform, as the compiler would.
func TestEveryDefinitionReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	l := &censusLoader{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*censusPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		l.dirs[censusImportPath(path)] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil && !errors.Is(err, errNoGo) {
			t.Fatal(err)
		}
	}

	c := l.census()
	reached := c.walk(c.roots)
	var kept []types.Object
	for _, o := range c.defs {
		if _, ok := censusKept[censusName(o)]; ok {
			kept = append(kept, o)
		}
	}
	keptDeps := c.walk(kept)
	redundant := map[types.Object]bool{}
	for i, o := range kept {
		others := append(append([]types.Object(nil), kept[:i]...), kept[i+1:]...)
		redundant[o] = c.walk(others)[o]
	}

	var unreached []string
	found := map[string]bool{}
	for _, o := range c.defs {
		name := censusName(o)
		found[name] = true
		_, listed := censusKept[name]
		switch {
		case listed && reached[o]:
			t.Errorf("%s is reached now: drop it from censusKept", name)
		case listed && redundant[o]:
			t.Errorf("%s is kept by what another censusKept entry reaches: drop it from censusKept", name)
		case !listed && !reached[o] && !keptDeps[o]:
			unreached = append(unreached, fmt.Sprintf("%s (%s)", name, l.fset.Position(o.Pos())))
		}
	}
	for name, why := range censusKept {
		if !found[name] {
			t.Errorf("censusKept names %s, which the tree does not define", name)
		}
		if !slices.ContainsFunc([]string{keptOracle, keptFault, keptBench, keptFixture, keptVocab},
			func(kind string) bool { return strings.HasPrefix(why, kind) }) {
			t.Errorf("censusKept[%s] = %q: a reason starts with one of the five kinds", name, why)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no program reaches %s", u)
	}
	t.Logf("%d packages, %d definitions, %d kept", len(l.order), len(c.defs), len(censusKept))
}

var errNoGo = errors.New("no Go files")

func censusImportPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

type censusPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// censusLoader type-checks the packages of both modules from source and
// imports the standard library from export data.
type censusLoader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string
	pkgs  map[string]*censusPkg
	order []*censusPkg
}

func (l *censusLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *censusLoader) load(path string) (*censusPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, errNoGo
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := l.dirs[path]
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
		return nil, errNoGo
	}
	if err != nil {
		return nil, err
	}
	p := &censusPkg{path: path, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// census is the definition graph: which objects each declaration's source
// mentions, and the declarations that run whether or not anything calls them.
type census struct {
	defs   []types.Object
	deps   map[types.Object][]types.Object
	roots  []types.Object
	ifaces map[string]bool
}

func (l *censusLoader) census() *census {
	c := &census{deps: map[types.Object][]types.Object{}, ifaces: map[string]bool{}}
	ours := func(o types.Object) bool {
		return o != nil && o.Pkg() != nil && l.pkgs[o.Pkg().Path()] != nil
	}
	for _, p := range l.order {
		uses := func(n ast.Node) []types.Object {
			var out []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if o := censusOrigin(p.info.Uses[id]); ours(o) {
						out = append(out, o)
					}
				}
				return true
			})
			return out
		}
		program := p.pkg.Name() == "main" && (strings.HasPrefix(p.path, "repro/cmd/") ||
			strings.HasPrefix(p.path, "repro/examples/") || strings.HasPrefix(p.path, "repro/benchmark"))
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					o := p.info.Defs[d.Name]
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && program) {
						c.roots = append(c.roots, uses(d)...)
						continue
					}
					c.defs = append(c.defs, o)
					c.deps[o] = uses(d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							o := p.info.Defs[s.Name]
							c.defs = append(c.defs, o)
							c.deps[o] = uses(s)
						case *ast.ValueSpec:
							deps := uses(s)
							if len(s.Values) > 0 && d.Tok == token.VAR {
								c.roots = append(c.roots, deps...)
							}
							for _, id := range s.Names {
								if id.Name == "_" {
									continue
								}
								o := p.info.Defs[id]
								c.defs = append(c.defs, o)
								c.deps[o] = deps
							}
						}
					}
				}
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				c.addIface(it)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var scan func(*types.Package)
	scan = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					c.addIface(it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			scan(imp)
		}
	}
	for _, p := range l.order {
		scan(p.pkg)
	}
	return c
}

func (c *census) addIface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		c.ifaces[it.Method(i).Name()] = true
	}
}

// walk returns every definition reached from roots.
func (c *census) walk(roots []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	queue := append([]types.Object(nil), roots...)
	for len(queue) > 0 {
		o := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[o] {
			continue
		}
		reached[o] = true
		queue = append(queue, c.deps[o]...)
		if _, ok := o.(*types.TypeName); !ok {
			if t := censusNamed(o.Type()); t != nil {
				queue = append(queue, t.Obj())
			}
			continue
		}
		if t := censusNamed(o.Type()); t != nil {
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); c.ifaces[m.Name()] {
					queue = append(queue, m)
				}
			}
		}
	}
	return reached
}

func censusNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

func censusOrigin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		if o.IsField() {
			return nil
		}
		return o.Origin()
	}
	return o
}

// censusName names a definition by its package path under the module, then
// its receiver type for a method: "internal/obs.Registry.Lint".
func censusName(o types.Object) string {
	name := strings.TrimPrefix(strings.TrimPrefix(o.Pkg().Path(), "repro"), "/") + "."
	if f, ok := o.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if n := censusNamed(recv.Type()); n != nil {
				name += n.Obj().Name() + "."
			}
		}
	}
	return name + o.Name()
}
