package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// The export census (DESIGN.md §3).
//
// Every exported package-level identifier and every exported method in the
// module must be used by non-test code: its own package, another package,
// a command, an example, a tool, or the benchmark harness in
// tools/pipebench (a module of its own, so its uses of the pipeline's API
// count too). An export that only tests reach is surface nobody runs; it
// is deleted, moved into the test file that needs it, or listed in
// testdata/census.txt with the reason it stays. A listed name that has
// gained a caller, or that no longer exists, fails the census as well, so
// the list only ever shrinks to what is true.
//
// What counts as a use: any reference resolved by the type checker in a
// non-test file. A call through an interface method counts as a use of
// that method on every type whose pointer method set has all of the
// interface's method names, and so do the method names the standard
// library calls implicitly (censusImplicit). Names suffice: each package
// is type-checked on its own, so type identity does not carry across
// packages.

const censusAllowlist = "testdata/census.txt"

// censusModules are the module roots whose non-test code is both surveyed
// and counted as callers.
var censusModules = []string{".", "tools/pipebench"}

// censusImplicit are methods the standard library calls through its own
// interfaces, so no call site in the module names them: fmt.Stringer,
// error, errors' Unwrap, http.Handler, sort.Interface and
// heap.Interface.
var censusImplicit = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

type censusPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// censusKey names a package-level object as "<import path>.<Name>" and a
// method as "<import path>.<Type>.<Method>". Anything else (fields, locals,
// methods of unnamed interfaces) has no key.
func censusKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return fn.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// runCensus type-checks every non-test file of both modules and returns
// every exported key it declares, and, sorted, those no non-test code
// uses.
func runCensus(t *testing.T) (declared map[string]bool, unused []string) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	exports := map[string]string{}
	var survey []censusPackage
	seen := map[string]bool{}
	for _, mod := range censusModules {
		cmd := exec.Command(goTool, "list", "-e", "-export", "-deps", "-json", "./...")
		cmd.Dir = mod
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", mod, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p censusPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("go list in %s: %v", mod, err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if p.Standard || p.Module == nil || seen[p.ImportPath] || len(p.GoFiles) == 0 {
				continue
			}
			if p.Module.Path != "winlab" && !strings.HasPrefix(p.Module.Path, "winlab/") {
				continue
			}
			seen[p.ImportPath] = true
			survey = append(survey, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	declared = map[string]bool{}
	used := map[string]bool{}
	// methodSets maps a named type's key to its pointer method set's
	// names; ifaceCalls maps a method name to the method-name sets of the
	// interfaces it was called through.
	methodSets := map[string]map[string]bool{}
	ifaceCalls := map[string][]map[string]bool{}
	for _, p := range survey {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[censusKey(obj)] = true
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					declared[censusKey(m)] = true
				}
			}
			methodSets[censusKey(obj)] = methodNames(named)
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						declared[censusKey(m)] = true
					}
				}
			}
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalls[fn.Name()] = append(ifaceCalls[fn.Name()], methodNames(recv.Type()))
				}
			}
			if k := censusKey(obj); k != "" {
				used[k] = true
			}
		}
	}

	for k := range declared {
		if used[k] {
			continue
		}
		if isCensusMethod(k) {
			dot := strings.LastIndexByte(k, '.')
			method, have := k[dot+1:], methodSets[k[:dot]]
			if censusImplicit[method] || slices.ContainsFunc(ifaceCalls[method], func(iface map[string]bool) bool {
				for name := range iface {
					if !have[name] {
						return false
					}
				}
				return true
			}) {
				continue
			}
		}
		unused = append(unused, k)
	}
	sort.Strings(unused)
	return declared, unused
}

// methodNames returns the names in t's pointer method set, or in its own
// method set if t is an interface (a pointer to an interface has no
// methods).
func methodNames(t types.Type) map[string]bool {
	if !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	names := make(map[string]bool, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		names[ms.At(i).Obj().Name()] = true
	}
	return names
}

// isCensusMethod reports whether key names a method (three dotted parts
// after the import path's last slash) rather than a package-level name.
func isCensusMethod(key string) bool {
	return strings.Count(key[strings.LastIndexByte(key, '/')+1:], ".") == 2
}

// readCensusAllowlist returns the allowlist's keys. Each line is a key, a
// space and the reason the name stays; '#' starts a comment line.
func readCensusAllowlist(t *testing.T) map[string]bool {
	f, err := os.Open(censusAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", censusAllowlist, line, key)
		}
		if allow[key] {
			t.Errorf("%s:%d: %s listed twice", censusAllowlist, line, key)
		}
		allow[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestExportCensus fails on an exported identifier that no non-test code
// uses and the allowlist does not name, and on an allowlist line whose
// name has gained a caller or no longer exists.
func TestExportCensus(t *testing.T) {
	allow := readCensusAllowlist(t)
	declared, unused := runCensus(t)
	isUnused := map[string]bool{}
	for _, k := range unused {
		isUnused[k] = true
		if !allow[k] {
			t.Errorf("%s: exported, but no non-test code uses it; delete it, move it into the test file that needs it, or list it in %s with the reason it stays", k, censusAllowlist)
		}
	}
	var stale []string
	for k := range allow {
		if !isUnused[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		why := "non-test code uses it now"
		if !declared[k] {
			why = "it no longer exists"
		}
		t.Errorf("%s: listed in %s, but %s; remove the line", k, censusAllowlist, why)
	}
}
