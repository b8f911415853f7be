package tnb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported functions, methods and struct fields
// under internal/ that no production code calls or sets, each with the
// reason it stays. Keys are "<package dir>:<Name>" for functions and
// "<package dir>:<Type>.<Name>" for methods and fields; a key ending in
// ":<Type>.*" exempts all fields of a type, one ending in ":*" a whole
// package.
var testOnlyAllowed = map[string]string{
	"internal/faultinject:*": "test-support package by design: its callers are the fault-injection tests",

	"internal/dsp:MulConj":                    "oracle: the legacy three-pass dechirp that DechirpFused is tested against (dsp, lora)",
	"internal/dsp:MagSq":                      "oracle: the Forward-then-magnitude reference ForwardMag is tested against (dsp)",
	"internal/bec:ErrorProbCR3TwoColumns":     "oracle: the §6 analysis the BEC Monte Carlo test checks against",
	"internal/netserver:pendBySeq.Less":       "sort.Interface method, called by package sort",
	"internal/netserver:recsByKey.Less":       "sort.Interface method, called by package sort",
	"internal/netserver:shardStatsOrder.Less": "sort.Interface method, called by package sort",

	"internal/stagegraph:RecHeader.*":               "wire struct: ParseRecording fills it with json.Unmarshal; headerFromConfig writes retired knobs as their zero value so TNBSGR1 headers keep their bytes",
	"internal/gateway:Hello.UseBEC":                 "wire field: a client sends use_bec in the JSON hello; the Go clients keep the default",
	"internal/stagegraph:Config.DisableSecondPass":  "ablation hook: BenchmarkAblationSecondPass turns off the §4 masked second pass",
	"internal/stagegraph:Config.Omega":              "ablation hook: BenchmarkAblationOmega sweeps the history-cost weight ω",
	"internal/stagegraph:Config.W":                  "test hook: the failure-attribution tests starve BEC's CRC budget to force bec_budget_exhausted",
	"internal/stagegraph:Config.FaultCFOBiasCycles": "test hook: the failure-attribution tests corrupt the CFO lock so the loss must be attributed to sync",
	"internal/detect:Detector.CFOBiasCycles":        "test hook: the detector end of Config.FaultCFOBiasCycles, which New copies into it",
	"internal/stagegraph:Config.MaxPayloadLen":      "fixture knob: the golden, fuzz and differential fixtures decode with a 12- or 16-byte bound to keep provisional calculators small, and golden_2pkt.tnbsgr records 12 in its header, so a constant 48 would change its bytes; production takes the 48-byte default",
	"internal/stagegraph:Config.ListDecode":         "extension: list decoding decodes 239 packets where plain decoding gets 235 (EXPERIMENTS.md); whether it becomes the default is for the decode-quality gate to decide",
	"internal/gateway:Backoff.Seed":                 "test hook: the retry tests pin reproducible jitter schedules; production uses seed 1",
	"internal/stream:Config.MaxBufferSamples":       "test hook: the overflow tests set a tiny ceiling and the disabled one; production uses 4×(window+overlap)",
	"internal/channel:Flat.Gain":                    "test fixture: Flat is the one-tap channel the channel and trace tests apply",
	"internal/tracestore:Options.MaxBytes":          "retention setting: no command exposes it yet, and choosing one is a deployment decision of its own",
	"internal/tracestore:Options.MaxAge":            "retention setting: no command exposes it yet, and choosing one is a deployment decision of its own",
}

// TestNoTestOnlyExports is the census of what no production code reaches.
// It fails when, in a non-test file under internal/,
//
//   - an exported function or method is named nowhere else in the
//     repository's non-test Go files, or
//   - an exported field of an exported struct type is set by no non-test
//     file. A field counts as set when it is a key in a composite literal of
//     its type (T{F: …} or pkg.T{F: …}, also with the type elided inside a
//     slice or map literal), when an unkeyed literal of its type exists, or
//     when x.F is the target of an assignment, ++/-- or &x.F. A defaulting
//     assignment, x.F = c in the body of if x.F == <zero value> with c a
//     literal or a constant, does not count: it fills in what nobody set. A
//     key whose
//     value is another field (T{F: y.G}) is a copy, and so is an
//     assignment x.F = y.G: it sets F only if G is set, so a config round
//     trip through a recording header does not make a never-set knob look
//     set.
//
// bench/, cmd/ and examples/ count as production code. There is no type
// checker here: function names are matched as identifiers, and x in x.F or
// y.G is resolved only when it is a parameter, receiver or variable whose
// declaration names its struct type; otherwise any field of that name
// counts. So a dead name that shares its spelling with a live one can go
// unnoticed, but a name with a caller or setter is never flagged. Fix a
// failure by deleting the declaration with its tests, or by adding it to
// testOnlyAllowed with a reason.
func TestNoTestOnlyExports(t *testing.T) {
	c := takeCensus(t)
	if len(c.funcs) == 0 || len(c.fields) == 0 {
		t.Fatalf("census found %d exported functions and %d exported fields under internal/", len(c.funcs), len(c.fields))
	}

	var dead []string
	allowedSeen := map[string]bool{}
	check := func(d censusDecl, reached bool, what string) {
		pkgKey := d.key[:strings.Index(d.key, ":")] + ":*"
		typeKey := d.typ + ".*"
		switch {
		case testOnlyAllowed[pkgKey] != "":
			allowedSeen[pkgKey] = true
		case d.typ != "" && testOnlyAllowed[typeKey] != "":
			allowedSeen[typeKey] = true
		case testOnlyAllowed[d.key] != "":
			allowedSeen[d.key] = true
			if reached {
				t.Errorf("%s has a production %s now; drop it from testOnlyAllowed", d.key, what)
			}
		case !reached:
			dead = append(dead, d.key)
		}
	}
	for _, d := range c.funcs {
		check(d, c.uses[d.name] > 0, "caller")
	}
	c.resolveCopies()
	for _, d := range c.fields {
		check(d, c.setField(d.key), "setter")
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s is exported but only tests reach it: delete it with its tests, or allow it with a reason", k)
	}
	for k := range testOnlyAllowed {
		if !allowedSeen[k] {
			t.Errorf("testOnlyAllowed entry %s matches no declaration", k)
		}
	}
}

// censusDecl is one exported declaration under internal/: key is its
// testOnlyAllowed key, name its bare identifier, and typ, for a field, the
// "<package dir>:<Type>" that declares it.
type censusDecl struct{ key, name, typ string }

// census is what one walk over the repository's non-test Go files finds.
type census struct {
	funcs  []censusDecl
	fields []censusDecl
	// uses counts identifiers other than a function's own declared name.
	uses map[string]int
	// declared holds "<dir>:<Type>.<Field>" for every field a struct type
	// in the walk declares, exported or not.
	declared map[string]bool
	// keyed holds "<dir>:<Type>.<Field>" for every composite-literal key
	// and every assignment target whose x resolves to a type; positional
	// holds "<dir>:<Type>" for every unkeyed literal.
	keyed, positional map[string]bool
	// assigned holds the field names set through an x that does not
	// resolve.
	assigned map[string]bool
	// copies holds the literal keys T{F: y.G} and the assignments
	// x.F = y.G: key is "<dir>:<Type>.F", or F when x does not resolve,
	// src the resolved "<dir>:<Type>.G" or, when y does not resolve, G.
	copies []fieldCopy
}

type fieldCopy struct{ key, src string }

// setField reports whether the field with key "<dir>:<Type>.<Name>" is set.
func (c *census) setField(key string) bool {
	dot := strings.LastIndex(key, ".")
	return c.keyed[key] || c.positional[key[:dot]] || c.assigned[key[dot+1:]]
}

// fieldName returns the <Name> of a "<dir>:<Type>.<Name>" key; a bare name
// is returned as is.
func fieldName(key string) string { return key[strings.LastIndex(key, ".")+1:] }

// resolveCopies marks every copied key whose source is set, repeating until
// nothing changes, since a copy can feed a copy. An unresolved source G is
// set when any field named G is. A resolved key or source its type does not
// declare (a field promoted from an embedded struct) falls back to its name
// first.
func (c *census) resolveCopies() {
	for k := range c.keyed {
		if !c.declared[k] {
			c.assigned[fieldName(k)] = true
		}
	}
	for i, cp := range c.copies {
		if !c.declared[cp.src] {
			c.copies[i].src = fieldName(cp.src)
		}
		if strings.Contains(cp.key, ":") && !c.declared[cp.key] {
			c.copies[i].key = fieldName(cp.key)
		}
	}
	// names holds every field name set somewhere, for unresolved sources.
	names := map[string]bool{}
	for k := range c.assigned {
		names[k] = true
	}
	for k := range c.keyed {
		names[fieldName(k)] = true
	}
	for _, d := range c.fields {
		if c.positional[d.typ] {
			names[d.name] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, cp := range c.copies {
			set := c.keyed
			if !strings.Contains(cp.key, ":") {
				set = c.assigned
			}
			if set[cp.key] {
				continue
			}
			if c.declared[cp.src] && c.setField(cp.src) || names[cp.src] {
				set[cp.key] = true
				names[fieldName(cp.key)] = true
				changed = true
			}
		}
	}
}

// takeCensus parses every non-test Go file in the repository, skipping
// testdata and hidden directories.
func takeCensus(t *testing.T) *census {
	t.Helper()
	c := &census{uses: map[string]int{}, declared: map[string]bool{}, keyed: map[string]bool{}, positional: map[string]bool{}, assigned: map[string]bool{}}
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
		c.add(f, filepath.ToSlash(filepath.Dir(path)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// add records one file's declarations, identifier uses and field setters.
func (c *census) add(f *ast.File, dir string) {
	internal := strings.HasPrefix(dir, "internal/")
	own := map[*ast.Ident]bool{}
	for _, dd := range f.Decls {
		switch dd := dd.(type) {
		case *ast.FuncDecl:
			own[dd.Name] = true
			if !internal || !dd.Name.IsExported() {
				continue
			}
			key := dd.Name.Name
			if dd.Recv != nil {
				key = recvTypeName(dd.Recv.List[0].Type) + "." + key
			}
			c.funcs = append(c.funcs, censusDecl{key: dir + ":" + key, name: dd.Name.Name})
		case *ast.GenDecl:
			if dd.Tok != token.TYPE {
				continue
			}
			for _, s := range dd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || ts.Assign.IsValid() {
					continue
				}
				typ := dir + ":" + ts.Name.Name
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						c.declared[typ+"."+n.Name] = true
						if internal && ts.Name.IsExported() && n.IsExported() {
							c.fields = append(c.fields, censusDecl{key: typ + "." + n.Name, name: n.Name, typ: typ})
						}
					}
				}
			}
		}
	}

	imports := map[string]string{} // local package name → import path
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := p[strings.LastIndex(p, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	// elided maps a literal written without its type (the inner {…} of
	// []T{{…}}) to the type its enclosing literal implies.
	elided := map[*ast.CompositeLit]ast.Expr{}
	// ref names the field y.G as "<dir>:<Type>.G", or G when y does not
	// resolve; it returns "" when x is no field selector.
	ref := func(x ast.Expr) string {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok || isPackage(sel.X, imports) {
			return ""
		}
		if typ := varType(sel.X, dir, imports); typ != "" {
			return typ + "." + sel.Sel.Name
		}
		return sel.Sel.Name
	}
	target := func(x ast.Expr) {
		switch k := ref(x); {
		case strings.Contains(k, ":"):
			c.keyed[k] = true
		case k != "":
			c.assigned[k] = true
		}
	}
	// defaulting holds the assignments x.F = d that fill in a zero x.F.
	defaulting := map[*ast.AssignStmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if !own[n] {
				c.uses[n.Name]++
			}
		case *ast.IfStmt:
			if x := zeroTest(n.Cond); x != nil {
				for _, st := range n.Body.List {
					if as, ok := st.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 &&
						types.ExprString(as.Lhs[0]) == types.ExprString(x) && isConstant(as.Rhs[0]) {
						defaulting[as] = true
					}
				}
			}
		case *ast.AssignStmt:
			if defaulting[n] {
				return true
			}
			for i, x := range n.Lhs {
				if len(n.Rhs) == len(n.Lhs) && n.Tok == token.ASSIGN {
					if k, src := ref(x), ref(n.Rhs[i]); k != "" && src != "" {
						c.copies = append(c.copies, fieldCopy{key: k, src: src})
						continue
					}
				}
				target(x)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.CompositeLit:
			typ := n.Type
			if typ == nil {
				typ = elided[n]
			}
			var elem ast.Expr
			switch tt := typ.(type) {
			case *ast.ArrayType:
				elem = tt.Elt
			case *ast.MapType:
				elem = tt.Value
			}
			if elem != nil {
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil {
						elided[inner] = elem
					}
				}
				return true
			}
			name := litTypeName(typ, dir, imports)
			if name == "" {
				return true
			}
			for _, e := range n.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					c.positional[name] = true
					break
				}
				k, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if src := ref(kv.Value); src != "" {
					c.copies = append(c.copies, fieldCopy{key: name + "." + k.Name, src: src})
				} else {
					c.keyed[name+"."+k.Name] = true
				}
			}
		}
		return true
	})
}

// zeroTest returns x.F when cond is x.F == <zero value>: 0, "", nil or
// false; it returns nil otherwise.
func zeroTest(cond ast.Expr) ast.Expr {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return nil
	}
	sel, ok := be.X.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch z := be.Y.(type) {
	case *ast.BasicLit:
		if v := strings.Trim(z.Value, `"0.`); v == "" {
			return sel
		}
	case *ast.Ident:
		if z.Name == "nil" || z.Name == "false" {
			return sel
		}
	}
	return nil
}

// isConstant reports whether x is a literal or names a constant declared in
// its file.
func isConstant(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return x.Obj != nil && x.Obj.Kind == ast.Con
	}
	return false
}

// isPackage reports whether x names an imported package, so x.G is a
// qualified identifier rather than a field.
func isPackage(x ast.Expr, imports map[string]string) bool {
	id, ok := x.(*ast.Ident)
	return ok && imports[id.Name] != ""
}

// varType names the struct type of x as "<package dir>:<Type>" when x is
// an identifier whose declaration states it: a parameter, receiver or var
// of type T or *T, or x := T{…} or &T{…}. It returns "" otherwise.
func varType(x ast.Expr, dir string, imports map[string]string) string {
	id, ok := x.(*ast.Ident)
	if !ok || id.Obj == nil {
		return ""
	}
	var typ ast.Expr
	switch d := id.Obj.Decl.(type) {
	case *ast.Field:
		typ = d.Type
	case *ast.ValueSpec:
		typ = d.Type
	case *ast.AssignStmt:
		for i, l := range d.Lhs {
			if l, ok := l.(*ast.Ident); ok && l.Name == id.Name && len(d.Rhs) == len(d.Lhs) {
				rhs := d.Rhs[i]
				if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
					rhs = u.X
				}
				if cl, ok := rhs.(*ast.CompositeLit); ok {
					typ = cl.Type
				}
			}
		}
	}
	if typ == nil {
		return ""
	}
	if st, ok := typ.(*ast.StarExpr); ok {
		typ = st.X
	}
	return litTypeName(typ, dir, imports)
}

// litTypeName names the struct type a composite literal builds as
// "<package dir>:<Type>", resolving pkg.T through the file's imports of this
// module; it returns "" for anything else.
func litTypeName(x ast.Expr, dir string, imports map[string]string) string {
	switch e := x.(type) {
	case *ast.Ident:
		return dir + ":" + e.Name
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok {
			if p, ok := strings.CutPrefix(imports[pkg.Name], "tnb/"); ok {
				return p + ":" + e.Sel.Name
			}
		}
	case *ast.StarExpr: // the elided &T{…} of []*T{{…}}
		return litTypeName(e.X, dir, imports)
	}
	return ""
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
