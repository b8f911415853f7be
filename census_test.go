package tnb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported functions and methods under internal/
// that no production code calls, each with the reason it stays. Keys are
// "<package dir>:<Name>" or "<package dir>:<Type>.<Name>"; a key ending in
// ":*" exempts a whole package.
var testOnlyAllowed = map[string]string{
	"internal/faultinject:*": "test-support package by design: its callers are the fault-injection tests",

	"internal/dsp:MulConj":                    "oracle: the legacy three-pass dechirp that DechirpFused is tested against (dsp, lora)",
	"internal/dsp:MagSq":                      "oracle: the Forward-then-magnitude reference ForwardMag is tested against (dsp, peaks)",
	"internal/bec:ErrorProbCR3TwoColumns":     "oracle: the §6 analysis the BEC Monte Carlo test checks against",
	"internal/netserver:pendBySeq.Less":       "sort.Interface method, called by package sort",
	"internal/netserver:recsByKey.Less":       "sort.Interface method, called by package sort",
	"internal/netserver:shardStatsOrder.Less": "sort.Interface method, called by package sort",
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in a non-test file under internal/ is named nowhere else in the
// repository's non-test Go files; bench/, cmd/ and examples/ count as
// callers. Names are matched as identifiers, not resolved by type, so a
// dead function that shares its name with a live one goes unnoticed, but a
// name with a caller is never flagged. Fix a failure by deleting the
// function with its tests, or by adding it to testOnlyAllowed with a reason.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, name string }
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			dir := filepath.ToSlash(filepath.Dir(path))
			if !strings.HasPrefix(dir, "internal/") || !fd.Name.IsExported() {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil {
				key = recvTypeName(fd.Recv.List[0].Type) + "." + key
			}
			decls = append(decls, decl{key: dir + ":" + key, name: fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}

	var dead []string
	allowedSeen := map[string]bool{}
	for _, d := range decls {
		pkgKey := d.key[:strings.Index(d.key, ":")] + ":*"
		switch {
		case testOnlyAllowed[pkgKey] != "":
			allowedSeen[pkgKey] = true
		case testOnlyAllowed[d.key] != "":
			allowedSeen[d.key] = true
			if uses[d.name] > 0 {
				t.Errorf("%s has a production caller now; drop it from testOnlyAllowed", d.key)
			}
		case uses[d.name] == 0:
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s is exported but only tests call it: delete it with its tests, or allow it with a reason", k)
	}
	for k := range testOnlyAllowed {
		if !allowedSeen[k] {
			t.Errorf("testOnlyAllowed entry %s matches no declaration", k)
		}
	}
}

// recvTypeName returns the base type name of a method receiver.
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
