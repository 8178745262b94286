//go:build ignore

// gen_cooked writes cooked.go: the rngCooked table copied from the Go
// toolchain's math/rand/rng.go, under the Go Authors' copyright notice
// and the BSD licence text of the toolchain's LICENSE file. Run it with
// `go generate ./internal/rng`; it copies the table's literals as they
// stand, so the source's seeding stays math/rand's.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		log.Fatalf("go env GOROOT: %v", err)
	}
	goroot := strings.TrimSpace(string(out))
	rngPath := filepath.Join(goroot, "src", "math", "rand", "rng.go")
	src, err := os.ReadFile(rngPath)
	if err != nil {
		log.Fatal(err)
	}
	license, err := os.ReadFile(filepath.Join(goroot, "LICENSE"))
	if err != nil {
		log.Fatal(err)
	}
	version, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		log.Fatalf("go env GOVERSION: %v", err)
	}
	notice, elts, err := cookedLiterals(src)
	if err != nil {
		log.Fatalf("%s: %v", rngPath, err)
	}
	if len(elts) != 607 {
		log.Fatalf("%s: rngCooked has %d entries, want 607", rngPath, len(elts))
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by gen_cooked.go from math/rand/rng.go (%s); DO NOT EDIT.\n\n",
		strings.TrimSpace(string(version)))
	b.WriteString("// rngCooked below is copied from math/rand/rng.go of the Go source tree:\n//\n")
	writeComment(&b, notice)
	b.WriteString("//\n// The LICENSE file it names reads:\n//\n")
	writeComment(&b, string(license))
	b.WriteString("\npackage rng\n\n")
	b.WriteString("// rngCooked is math/rand's rngCooked: each seeded word is XORed with\n")
	b.WriteString("// its entry.\n")
	b.WriteString("var rngCooked = [rngLen]int64{\n")
	for i, e := range elts {
		b.WriteString(e + ",")
		if i%4 == 3 || i == len(elts)-1 {
			b.WriteString("\n")
		} else {
			b.WriteString(" ")
		}
	}
	b.WriteString("}\n")
	formatted, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("cooked.go", formatted, 0o644); err != nil {
		log.Fatal(err)
	}
}

// writeComment writes text to b as line comments.
func writeComment(b *bytes.Buffer, text string) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			b.WriteString("//\n")
		} else {
			b.WriteString("// " + line + "\n")
		}
	}
}

// cookedLiterals returns rng.go's copyright notice (the comment above its
// package clause) and the source text of each element of its rngCooked
// composite literal.
func cookedLiterals(src []byte) (notice string, elts []string, err error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "rng.go", src, parser.ParseComments)
	if err != nil {
		return "", nil, err
	}
	if len(file.Comments) == 0 || file.Comments[0].End() >= file.Package {
		return "", nil, fmt.Errorf("no copyright notice above the package clause")
	}
	notice = file.Comments[0].Text()
	var lit *ast.CompositeLit
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "rngCooked" || len(vs.Values) != 1 {
			return true
		}
		lit, _ = vs.Values[0].(*ast.CompositeLit)
		return false
	})
	if lit == nil {
		return "", nil, fmt.Errorf("no rngCooked composite literal")
	}
	elts = make([]string, len(lit.Elts))
	for i, e := range lit.Elts {
		elts[i] = string(src[fset.Position(e.Pos()).Offset:fset.Position(e.End()).Offset])
	}
	return notice, elts, nil
}
