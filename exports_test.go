package ripplestudy_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers of internal/ that stay
// without a caller outside _test.go files, each with the reason it stays.
// Keys are "<package>.<Name>" or "<package>.<Type>.<Method>".
var exportAllowlist = map[string]string{
	"consensus.Network.NodeIDOf":        "monitor's detector tests name the validators they attack by label; the network hands out only node IDs",
	"consensus.TrafficAccount":          "integration's benign-stream test funds the scenario traffic account on a hand-built network to match Build",
	"faultnet.FlipRandomBit":            "ledgerstore's corruption and scan-path tests flip a seeded bit of a segment file",
	"faultnet.TruncateTail":             "ledgerstore's corruption, scan-path and walker tests cut a segment file short",
	"ledgerstore.WithSegmentBytes":      "replay, serve and integration tests roll segments every few pages to cover multi-segment stores",
	"netstream.WithWriteTimeout":        "integration tests stall a subscriber and need its eviction far sooner than the default deadline",
	"pathfind.WithMaxHops":              "the root hop-limit ablation benchmark sweeps the bound DESIGN.md discusses",
	"payment.Engine.XRPBalance":         "consensus and txq tests assert XRP balances after apply; production reads state through digests",
	"payment.WithSignatureVerification": "integration's signed-history test replays with signature checks on; generated histories are unsigned",
	"trustgraph.Graph.CheckInvariants":  "the ledger-invariant oracle: pathfind, payment and synth tests call it, and an apply-time check is planned",
}

// standardMethods are method names that satisfy interfaces of the
// standard library (fmt, error, encoding/json, net/http, sort,
// container/heap, io, net.Conn); they are called through those
// interfaces, never by name, so they are not counted.
var standardMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true,
	"Len":       true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteAt": true,
	"ReadFrom": true, "WriteTo": true, "Seek": true, "ReadByte": true, "WriteByte": true,
	"WriteString": true,
	"LocalAddr":   true, "RemoteAddr": true, "SetDeadline": true,
	"SetReadDeadline": true, "SetWriteDeadline": true,
}

// exportDecl is one exported declaration of an internal/ package.
type exportDecl struct {
	key  string // allowlist key
	pkg  string // import path
	name string // identifier, or method name
	recv string // receiver type name for a method, else ""
	pos  string // file:line
	node ast.Node
}

// TestExportsHaveCallers fails when an exported function, method, type,
// var or const in internal/ has no reference from a non-test file in
// internal/, cmd/, examples/ or bench/, unless exportAllowlist names it.
// Reference matching is by name (go/ast only): a package-level name
// counts when its own package uses it outside its declaration or another
// package selects it through an import of that package; a method counts
// when any file selects a member of that name.
func TestExportsHaveCallers(t *testing.T) {
	const module = "ripplestudy"
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path of the file's directory
		ast *ast.File
	}
	var files []file
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, file{pkg: module + "/" + filepath.ToSlash(filepath.Dir(path)), ast: f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var decls []exportDecl
	add := func(pkg, name, recv string, at token.Pos, node ast.Node) {
		short := strings.TrimPrefix(pkg, module+"/internal/")
		key := short + "." + name
		if recv != "" {
			key = short + "." + recv + "." + name
		}
		p := fset.Position(at)
		decls = append(decls, exportDecl{key: key, pkg: pkg, name: name, recv: recv,
			pos: fmt.Sprintf("%s:%d", p.Filename, p.Line), node: node})
	}
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, module+"/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				recv := ""
				if d.Recv != nil {
					recv = receiverName(d.Recv.List[0].Type)
					if standardMethods[d.Name.Name] {
						continue
					}
				}
				add(f.pkg, d.Name.Name, recv, d.Pos(), d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(f.pkg, s.Name.Name, "", s.Pos(), s)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(f.pkg, n.Name, "", n.Pos(), n)
							}
						}
					}
				}
			}
		}
	}

	// Collect references by position, so a declaration's references to
	// itself can be dropped: a selected member name anywhere (methods), a
	// bare identifier inside its own package, an imported package's
	// selected name elsewhere.
	members := map[string][]token.Pos{}     // member name -> selections
	pkgNames := map[[2]string][]token.Pos{} // {import path, name} -> uses
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = path
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A method's receiver names its type without using it.
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				members[n.Sel.Name] = append(members[n.Sel.Name], n.Sel.Pos())
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok {
						k := [2]string{path, n.Sel.Name}
						pkgNames[k] = append(pkgNames[k], n.Sel.Pos())
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				k := [2]string{f.pkg, n.Name}
				pkgNames[k] = append(pkgNames[k], n.Pos())
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var flagged []exportDecl
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		refs := pkgNames[[2]string{d.pkg, d.name}]
		if d.recv != "" {
			refs = members[d.name]
		}
		used := slices.ContainsFunc(refs, func(p token.Pos) bool { return p < d.node.Pos() || p >= d.node.End() })
		_, allowed := exportAllowlist[d.key]
		switch {
		case used && allowed:
			t.Errorf("allowlist entry %s now has a caller outside _test.go files; delete the entry", d.key)
		case !used && !allowed:
			flagged = append(flagged, d)
		}
	}
	for k, reason := range exportAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s carries no reason", k)
		}
		if !seen[k] {
			t.Errorf("allowlist entry %s names no exported declaration in internal/; delete the entry", k)
		}
	}
	if len(flagged) == 0 {
		return
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].key < flagged[j].key })
	var b strings.Builder
	fmt.Fprintf(&b, "%d exported identifiers in internal/ have no caller outside _test.go files:\n", len(flagged))
	for _, d := range flagged {
		fmt.Fprintf(&b, "  %-48s %s\n", d.key, d.pos)
	}
	b.WriteString(`Give each one exactly one disposition:
  (a) delete it, rewriting its tests onto the production API that survives;
  (b) give it a production caller, when it reproduces a claim of the paper;
  (c) move it into its own package's _test.go files, when only that package's tests use it;
  (d) keep it and add it to exportAllowlist in exports_test.go with a one-line reason,
      when another package's tests need it and no production API can serve.`)
	t.Error(b.String())
}

// receiverName returns the type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
